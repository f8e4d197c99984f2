#!/usr/bin/env python3
"""Adaptive accelerated-window tuning (extension beyond the paper).

The paper picks the Accelerated_window by hand per deployment.  This
example attaches the AIMD auto-tuner to every node of a simulated 1G
ring, starts from the most conservative setting (window 1 — nearly the
original protocol), and watches it climb to the hand-tuned operating
point while the ring carries 800 Mbps.

Run:  python examples/adaptive_window.py
"""

from repro.core import (
    AcceleratedWindowTuner,
    ProtocolConfig,
    Service,
)
from repro.net import GIGABIT
from repro.sim import SPREAD, SimCluster


def main() -> None:
    config = ProtocolConfig(
        personal_window=20, global_window=200, accelerated_window=1,
    )
    cluster = SimCluster(8, GIGABIT, SPREAD, config,
                         payload_size=1350, service=Service.AGREED)
    tuners = [
        AcceleratedWindowTuner(node.participant)
        for node in cluster.nodes.values()
    ]

    # Sample the window of node 0 as simulated time advances.
    samples = []

    def sampler():
        from repro.net import Timeout

        while True:
            yield Timeout(0.01)
            samples.append(
                (cluster.sim.now, cluster.nodes[0].participant.accelerated_window)
            )

    cluster.sim.spawn(sampler(), "sampler")

    print("Driving 800 Mbps through a ring that starts at window=1 ...\n")
    cluster.inject_at_rate(800e6, duration_s=0.3)
    result = cluster.run(0.3, warmup_s=0.15, offered_bps=800e6)

    print("time (ms)   accelerated window at node 0")
    for when, window in samples:
        print("  %6.0f     %2d  %s" % (when * 1e3, window, "#" * window))

    final_windows = sorted(
        node.participant.accelerated_window for node in cluster.nodes.values()
    )
    total_increases = sum(t.increases for t in tuners)
    print("\nFinal windows across nodes: %s (%d increases, %d decreases)"
          % (final_windows, total_increases, sum(t.decreases for t in tuners)))
    print("Steady-state: %.0f Mbps delivered at %.0f us mean latency%s"
          % (result.achieved_mbps, result.latency_us,
             " (saturated!)" if result.saturated else ""))
    print("\nHand-tuning found window~15 best for this setup; the AIMD "
          "controller gets there on its own.")


if __name__ == "__main__":
    main()
