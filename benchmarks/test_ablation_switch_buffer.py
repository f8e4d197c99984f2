"""Ablation: switch buffering vs the accelerated window.

The paper's Section I: the accelerated protocol "compensates for, and
even benefits from, the switch buffering" — overlapped multicasting
parks bursts in the per-port output queues.  Shrink the buffers and
aggressive overlap starts dropping frames (Section III-C's warning
about excessive overlap); with generous buffers the same window is
loss-free.
"""

from dataclasses import replace
from repro.bench import headline
from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT
from repro.sim import SPREAD, run_point


def run_buffer_sweep():
    config = ProtocolConfig(
        personal_window=40, global_window=400, accelerated_window=40,
    )
    results = {}
    for buffer_kb in (8, 24, 64, 384):
        spec = replace(GIGABIT, port_buffer_bytes=buffer_kb * 1024)
        # Drive the ring at full tilt: the accelerated window only
        # pressures the buffers when whole windows are in flight.
        results[buffer_kb] = run_point(
            config, SPREAD, spec, 950e6,
            service=Service.AGREED, duration_s=0.15, warmup_s=0.05,
        )
    return results


def test_switch_buffer_ablation(benchmark):
    results = benchmark.pedantic(run_buffer_sweep, rounds=1, iterations=1)

    drops = {kb: r.switch_drops for kb, r in results.items()}
    achieved = {kb: r.achieved_mbps for kb, r in results.items()}
    retransmissions = {kb: r.retransmissions for kb, r in results.items()}

    # Tiny buffers cannot absorb the overlapped bursts: loss appears and
    # goodput collapses.
    assert drops[8] > 0, drops
    assert achieved[8] < achieved[384] * 0.7, achieved
    # The protocol keeps recovering (retransmissions) rather than stalling.
    assert retransmissions[8] > 0
    # Adequate buffers absorb the same overlap without loss — the
    # "benefits from switch buffering" claim of Section I.
    assert drops[64] == 0 and drops[384] == 0, drops
    assert achieved[384] >= 900, achieved

    headline(
        "* ablation switch buffer @950 Mbps 1G, window 40: "
        + ", ".join(
            "%dKB: %d drops -> %.0f Mbps" % (kb, drops[kb], achieved[kb])
            for kb in sorted(drops)
        )
    )
