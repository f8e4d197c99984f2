"""Ablation: adaptive accelerated-window control (our extension).

The paper tunes the accelerated window by hand; `repro.core.autotune`
automates it with AIMD on the protocol's own loss feedback.  This bench
shows the tuner converging to the hand-tuned operating point: starting
from window 1 (nearly-original behaviour), the autotuned ring ends up
matching the hand-tuned ring's latency at high load on the simulated
1G testbed.
"""

from repro.bench import headline
from repro.core import AcceleratedWindowTuner, ProtocolConfig, Service
from repro.net import GIGABIT
from repro.sim import SPREAD, SimCluster


def run_cluster(accel_window, autotune):
    config = ProtocolConfig(
        personal_window=20, global_window=200,
        accelerated_window=accel_window,
    )
    cluster = SimCluster(8, GIGABIT, SPREAD, config,
                         payload_size=1350, service=Service.AGREED)
    tuners = []
    if autotune:
        tuners = [
            AcceleratedWindowTuner(node.participant)
            for node in cluster.nodes.values()
        ]
    cluster.inject_at_rate(800e6, duration_s=0.2)
    result = cluster.run(0.2, warmup_s=0.1, offered_bps=800e6)
    final_windows = [n.participant.accelerated_window
                     for n in cluster.nodes.values()]
    return result, final_windows, tuners


def run_all():
    fixed_good, _w, _t = run_cluster(accel_window=15, autotune=False)
    fixed_tiny, _w, _t = run_cluster(accel_window=1, autotune=False)
    tuned, windows, tuners = run_cluster(accel_window=1, autotune=True)
    return fixed_good, fixed_tiny, tuned, windows, tuners


def test_autotune_converges_to_hand_tuned(benchmark):
    fixed_good, fixed_tiny, tuned, windows, tuners = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    # A tiny fixed window cannot sustain 800 Mbps with flat latency...
    assert fixed_tiny.saturated or fixed_tiny.latency_us > fixed_good.latency_us * 3

    # ...but the autotuner grows from the same starting point to a
    # window that sustains the load near the hand-tuned latency.
    assert not tuned.saturated
    assert tuned.latency_us < fixed_good.latency_us * 2.5, (
        tuned.latency_us, fixed_good.latency_us,
    )
    assert min(windows) > 1, windows
    assert sum(t.increases for t in tuners) > 0

    headline(
        "* ablation autotune @800 Mbps 1G Spread: hand-tuned w=15 %.0fus; "
        "fixed w=1 %s; AIMD from w=1 -> windows %s, %.0fus"
        % (
            fixed_good.latency_us,
            "SAT" if fixed_tiny.saturated else "%.0fus" % fixed_tiny.latency_us,
            sorted(set(windows)),
            tuned.latency_us,
        )
    )
