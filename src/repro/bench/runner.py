"""Sweep runner: executes a SweepSpec into a Figure of series.

The grid of a figure is flattened into independent
:class:`~repro.bench.sweep.SweepPoint` measurements and handed to a
:class:`~repro.bench.sweep.SweepRunner`, which runs them serially or
across a process pool (``processes`` argument, or the
``REPRO_BENCH_PROCESSES`` environment variable).  Point order — and
therefore every figure table and CSV — is identical either way.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional

from ..stats import Figure, SeriesPoint
from .experiments import SweepSpec, tuned_configs
from .sweep import SweepPoint, SweepRunner

#: Directory where figures are persisted as markdown + CSV.
RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")

ProgressHook = Callable[[str], None]


def series_label(profile_name: str, protocol_name: str) -> str:
    return "%s/%s" % (profile_name, protocol_name)


def sweep_points(spec: SweepSpec) -> List[SweepPoint]:
    """Flatten a figure's (profile, protocol, load) grid, in figure order."""
    configs = tuned_configs(spec.link)
    points: List[SweepPoint] = []
    for profile in spec.profiles:
        for protocol_name in spec.protocols:
            config = configs[protocol_name]
            label = series_label(profile.name, protocol_name)
            for offered_mbps in spec.offered_mbps:
                points.append(
                    SweepPoint(
                        index=len(points),
                        series=label,
                        config=config,
                        profile=profile,
                        link=spec.link,
                        offered_mbps=offered_mbps,
                        n_nodes=spec.n_nodes,
                        payload_size=spec.payload_size,
                        service=spec.service,
                        duration_s=spec.duration_s,
                        warmup_s=spec.warmup_s,
                    )
                )
    return points


def run_sweep(
    spec: SweepSpec,
    progress: Optional[ProgressHook] = None,
    processes: Optional[int] = None,
) -> Figure:
    """Run every (profile, protocol, load) point of a figure."""
    figure = Figure(spec.figure_id, spec.title)
    runner = SweepRunner(processes)
    hook = None
    if progress is not None:
        hook = lambda line: progress("%s %s" % (spec.figure_id, line))
    for point, result in runner.run(sweep_points(spec), progress=hook):
        figure.series_for(point.series).add(
            SeriesPoint(
                offered_mbps=point.offered_mbps,
                achieved_mbps=result.achieved_mbps,
                latency_us=result.latency_us,
                saturated=result.saturated,
                extra={
                    "rounds_per_s": result.rounds_per_s,
                    "switch_drops": float(result.switch_drops),
                    "retransmissions": float(result.retransmissions),
                },
            )
        )
    return figure


def persist_figure(figure: Figure, directory: Optional[str] = None) -> str:
    """Write markdown + CSV for a figure (under :data:`RESULTS_DIR`, read
    at call time, unless ``directory`` is given); returns the markdown
    path."""
    directory = directory or RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    md_path = os.path.join(directory, "%s.md" % figure.figure_id)
    with open(md_path, "w") as handle:
        handle.write(figure.to_markdown() + "\n")
    with open(os.path.join(directory, "%s.csv" % figure.figure_id), "w") as handle:
        handle.write(figure.to_csv() + "\n")
    return md_path
