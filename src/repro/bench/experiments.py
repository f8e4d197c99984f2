"""Experiment definitions: one spec per paper figure.

The paper's methodology (Section IV-A): 8 servers, one daemon + one
sending client + one receiving client each; run at fixed throughput
levels from 100 Mbps to the maximum; measure mean delivery latency for
Agreed and Safe service; 1350-byte payloads on 1G/10G plus 8850-byte
payloads on 10G.  Windows are tuned per protocol/link as the paper
tunes them ("the smallest personal window that allowed the system to
reach its maximum throughput, and the accelerated window that resulted
in the highest throughput").

``quick`` mode (the default) uses shorter simulations and fewer sweep
points so the whole benchmark suite runs in minutes; set
``REPRO_BENCH_FULL=1`` for denser, longer sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

from ..core import ProtocolConfig, Service
from ..net import GIGABIT, TEN_GIGABIT, LinkSpec
from ..sim import DAEMON, LIBRARY, SPREAD, CostProfile


def full_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


# -- tuned protocol configurations -------------------------------------------

def tuned_configs(spec: LinkSpec) -> Dict[str, ProtocolConfig]:
    """Windows tuned per link speed, as the paper tunes per testbed."""
    if spec.rate_bps >= 5e9:
        return {
            "original": ProtocolConfig.original_ring(
                personal_window=40, global_window=400),
            "accelerated": ProtocolConfig(
                personal_window=40, accelerated_window=30, global_window=400),
        }
    return {
        "original": ProtocolConfig.original_ring(
            personal_window=20, global_window=200),
        "accelerated": ProtocolConfig(
            personal_window=20, accelerated_window=15, global_window=200),
    }


@dataclass(frozen=True)
class SweepSpec:
    """One figure: a grid of (profile, protocol, offered load)."""

    figure_id: str
    title: str
    link: LinkSpec
    service: Service
    payload_size: int
    profiles: Tuple[CostProfile, ...]
    protocols: Tuple[str, ...]
    offered_mbps: Tuple[float, ...]
    n_nodes: int = 8
    duration_s: float = 0.15
    warmup_s: float = 0.05


def _points(quick: Sequence[float], full: Sequence[float]) -> Tuple[float, ...]:
    return tuple(full if full_mode() else quick)


def _durations(link: LinkSpec) -> Tuple[float, float]:
    if full_mode():
        return (0.30, 0.10)
    if link.rate_bps >= 5e9:
        return (0.10, 0.035)
    return (0.15, 0.05)


def make_fig1() -> SweepSpec:
    duration, warmup = _durations(GIGABIT)
    return SweepSpec(
        figure_id="fig1",
        title="Agreed delivery latency vs throughput, 1-gigabit network",
        link=GIGABIT, service=Service.AGREED, payload_size=1350,
        profiles=(LIBRARY, DAEMON, SPREAD),
        protocols=("original", "accelerated"),
        offered_mbps=_points(
            (100, 300, 500, 700, 800, 900),
            (100, 200, 300, 400, 500, 600, 700, 800, 850, 900, 940),
        ),
        duration_s=duration, warmup_s=warmup,
    )


def make_fig2() -> SweepSpec:
    return replace(
        make_fig1(), figure_id="fig2",
        title="Safe delivery latency vs throughput, 1-gigabit network",
        service=Service.SAFE,
    )


def make_fig3() -> SweepSpec:
    duration, warmup = _durations(TEN_GIGABIT)
    return SweepSpec(
        figure_id="fig3",
        title="Agreed delivery latency vs throughput, 10-gigabit network",
        link=TEN_GIGABIT, service=Service.AGREED, payload_size=1350,
        profiles=(LIBRARY, DAEMON, SPREAD),
        protocols=("original", "accelerated"),
        offered_mbps=_points(
            (500, 1000, 2000, 3000, 4000, 4700),
            (250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4400, 4700),
        ),
        duration_s=duration, warmup_s=warmup,
    )


def make_fig5() -> SweepSpec:
    return replace(
        make_fig3(), figure_id="fig5",
        title="Safe delivery latency vs throughput, 10-gigabit network",
        service=Service.SAFE,
    )


def make_fig4() -> Tuple[SweepSpec, SweepSpec]:
    """Fig 4: accelerated protocol, 1350 vs 8850 byte payloads (Agreed)."""
    duration, warmup = _durations(TEN_GIGABIT)
    small = SweepSpec(
        figure_id="fig4-1350",
        title="Accelerated, 1350-byte payloads, 10G (Agreed)",
        link=TEN_GIGABIT, service=Service.AGREED, payload_size=1350,
        profiles=(LIBRARY, DAEMON, SPREAD),
        protocols=("accelerated",),
        offered_mbps=_points(
            (1000, 2000, 3000, 4000, 4700),
            (500, 1000, 2000, 3000, 4000, 4400, 4700),
        ),
        duration_s=duration, warmup_s=warmup,
    )
    large = SweepSpec(
        figure_id="fig4-8850",
        title="Accelerated, 8850-byte payloads, 10G (Agreed)",
        link=TEN_GIGABIT, service=Service.AGREED, payload_size=8850,
        profiles=(LIBRARY, DAEMON, SPREAD),
        protocols=("accelerated",),
        offered_mbps=_points(
            (2000, 4000, 5500, 7000, 7600),
            (1000, 2000, 3000, 4000, 5000, 6000, 7000, 7600),
        ),
        duration_s=duration, warmup_s=warmup,
    )
    return small, large


def make_fig6() -> Tuple[SweepSpec, SweepSpec]:
    small, large = make_fig4()
    return (
        replace(small, figure_id="fig6-1350",
                title="Accelerated, 1350-byte payloads, 10G (Safe)",
                service=Service.SAFE),
        replace(large, figure_id="fig6-8850",
                title="Accelerated, 8850-byte payloads, 10G (Safe)",
                service=Service.SAFE),
    )


def make_fig7() -> SweepSpec:
    duration, warmup = _durations(TEN_GIGABIT)
    return SweepSpec(
        figure_id="fig7",
        title="Safe delivery latency at low throughputs, 10-gigabit network",
        link=TEN_GIGABIT, service=Service.SAFE, payload_size=1350,
        profiles=(SPREAD, DAEMON),
        protocols=("original", "accelerated"),
        offered_mbps=_points(
            (100, 200, 300, 400, 500, 800),
            (100, 150, 200, 250, 300, 400, 500, 600, 800, 1000),
        ),
        duration_s=max(duration, 0.12), warmup_s=warmup,
    )


#: Figure id -> factory of its sweep spec, or of a tuple of specs (fig4
#: and fig6 sweep two payload sizes).
ALL_FIGURES = {
    "fig1": make_fig1,
    "fig2": make_fig2,
    "fig3": make_fig3,
    "fig4": make_fig4,
    "fig5": make_fig5,
    "fig6": make_fig6,
    "fig7": make_fig7,
}
