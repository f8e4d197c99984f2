"""Service disruption under injected faults (extension bench).

The fault-campaign DSL doubles as a measurement harness: install a
canonical fault schedule and time how long the ordering service is
disrupted — from the first fault to all live nodes operational on one
reformed ring.  Run for both the original Ring (window 0) and an
accelerated configuration, since reconfiguration is where acceleration
could plausibly hurt (more in-flight state to recover).
"""

from repro.bench import headline
from repro.core import ProtocolConfig
from repro.membership import MembershipTimeouts
from repro.net import GIGABIT
from repro.sim import (
    Crash,
    FaultSchedule,
    Heal,
    LIBRARY,
    Partition,
    Restart,
    SimEVSCluster,
    TokenDrop,
)

TIMEOUTS = MembershipTimeouts(
    token_loss_ticks=30, gather_ticks=20, commit_ticks=40,
    probe_interval_ticks=15,
)

SCENARIOS = {
    "crash+restart": FaultSchedule([Crash(0.0, 1), Restart(0.25, 1)]),
    "partition+heal": FaultSchedule([
        Partition(0.0, ((0, 1), (2, 3))), Heal(0.3),
    ]),
    "token_burst": FaultSchedule([TokenDrop(0.0, count=3)]),
}


def _config(accelerated_window):
    if accelerated_window == 0:
        return ProtocolConfig.original_ring(personal_window=10)
    return ProtocolConfig(
        personal_window=10, accelerated_window=accelerated_window
    )


def measure_disruption(accelerated_window, schedule):
    cluster = SimEVSCluster(4, GIGABIT, LIBRARY,
                            _config(accelerated_window), TIMEOUTS)
    cluster.run_until_converged(timeout_s=2.0)
    for pid, node in cluster.nodes.items():
        for i in range(5):
            node.submit((pid, i))
    fault_at = cluster.sim.now
    schedule.install(cluster)
    # Let every scheduled event (last one at <= 0.3 s) fire.
    cluster.run_for(0.35)
    recovered_at = cluster.run_until_converged(timeout_s=5.0)
    return recovered_at - fault_at


def run_matrix():
    return {
        (name, window): measure_disruption(window, schedule)
        for name, schedule in SCENARIOS.items()
        for window in (0, 2)
    }


def test_fault_disruption(benchmark):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    # Every scenario recovers within a second of the LAST fault event
    # (schedules end by t=0.3 s), with either configuration.
    for (name, window), took in results.items():
        assert took < 1.3, (name, window, took)
    # Acceleration does not meaningfully slow recovery: detection and
    # membership timeouts dominate, not the in-flight window.
    for name in SCENARIOS:
        original = results[(name, 0)]
        accelerated = results[(name, 2)]
        assert accelerated < original + 0.5, (name, original, accelerated)

    headline(
        "* fault disruption (4-node 1G, detect=30ms): "
        + ", ".join(
            "%s aw=%d -> %.0fms" % (name, window, took * 1e3)
            for (name, window), took in sorted(results.items())
        )
    )
