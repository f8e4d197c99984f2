"""Paper-vs-measured reporting.

Every benchmark registers its reproduced figure here; the benchmarks'
conftest prints the accumulated report in the pytest terminal summary,
and `persist_figure` keeps markdown/CSV copies under bench_results/.
"""

from __future__ import annotations

from typing import Dict, List

from ..stats import Figure

#: Global registry filled by benchmark runs (figure_id -> Figure).
REGISTRY: Dict[str, Figure] = {}

#: Free-form headline lines registered by benchmarks (shown in summary).
HEADLINES: List[str] = []


def register(figure: Figure) -> Figure:
    REGISTRY[figure.figure_id] = figure
    return figure


def headline(line: str) -> None:
    HEADLINES.append(line)


def render_all() -> str:
    blocks: List[str] = []
    for figure_id in sorted(REGISTRY):
        blocks.append(REGISTRY[figure_id].to_markdown())
    if HEADLINES:
        blocks.append("## Headline comparisons (paper vs measured)")
        blocks.extend(HEADLINES)
    return "\n\n".join(blocks)


def reset() -> None:
    REGISTRY.clear()
    HEADLINES.clear()

