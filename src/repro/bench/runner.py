"""Sweep runner: executes a SweepSpec into a Figure of series.

A figure's (profile, protocol, load) grid is a list of independent
:func:`repro.sim.run_point` calls — each builds its own simulator — so
:func:`run_sweep` maps :func:`_measure` over it with the builtin ``map``,
or with an ordered ``multiprocessing.Pool.imap`` when ``processes > 1``
(the ``processes`` argument, or the ``REPRO_BENCH_PROCESSES``
environment variable).  Both yield results in grid order, so every
figure table and CSV is identical either way.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

from ..core import ProtocolConfig
from ..sim import CostProfile, SimResult, run_point
from ..stats import Figure, SeriesPoint
from .experiments import SweepSpec, tuned_configs

#: Directory where figures are persisted as markdown + CSV.
RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")

ProgressHook = Callable[[str], None]


def series_label(profile_name: str, protocol_name: str) -> str:
    return "%s/%s" % (profile_name, protocol_name)


def default_processes() -> int:
    """Worker count from ``REPRO_BENCH_PROCESSES`` (default: serial)."""
    raw = os.environ.get("REPRO_BENCH_PROCESSES", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _measure(
    point: Tuple[SweepSpec, ProtocolConfig, CostProfile, float],
) -> SimResult:
    """One grid point; module-level so pool workers can pickle it."""
    spec, config, profile, offered_mbps = point
    return run_point(
        config, profile, spec.link, offered_mbps * 1e6,
        n_nodes=spec.n_nodes, payload_size=spec.payload_size,
        service=spec.service, duration_s=spec.duration_s,
        warmup_s=spec.warmup_s,
    )


def run_sweep(
    spec: SweepSpec,
    progress: Optional[ProgressHook] = None,
    processes: Optional[int] = None,
) -> Figure:
    """Run every (profile, protocol, load) point of a figure."""
    configs = tuned_configs(spec.link)
    cells = [
        (profile, protocol_name, offered_mbps)
        for profile in spec.profiles
        for protocol_name in spec.protocols
        for offered_mbps in spec.offered_mbps
    ]
    grid = [
        (spec, configs[protocol_name], profile, offered_mbps)
        for profile, protocol_name, offered_mbps in cells
    ]
    processes = default_processes() if processes is None else max(1, processes)
    pool = None
    if processes > 1 and len(grid) > 1:
        try:
            import multiprocessing
            pool = multiprocessing.Pool(min(processes, len(grid)))
        except (ImportError, OSError):
            pass  # restricted environment: run serially
    results = map(_measure, grid) if pool is None else pool.imap(_measure, grid)
    figure = Figure(spec.figure_id, spec.title)
    try:
        for (profile, protocol_name, offered_mbps), result in zip(cells, results):
            label = series_label(profile.name, protocol_name)
            if progress is not None:
                progress("%s %s @%.0f Mbps -> %.0f Mbps, %.0f us%s" % (
                    spec.figure_id, label, offered_mbps,
                    result.achieved_mbps, result.latency_us,
                    " SAT" if result.saturated else "",
                ))
            figure.series_for(label).add(
                SeriesPoint(
                    offered_mbps=offered_mbps,
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
    finally:
        if pool is not None:
            pool.close()
            pool.join()
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
