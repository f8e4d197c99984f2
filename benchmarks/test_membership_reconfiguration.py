"""Reconfiguration latency: how fast the ring heals (extension bench).

Not a paper figure, but the paper's Section I credits token protocols
with "fast failure detection" as one of the token's four roles.  This
bench quantifies it on the simulated 1G testbed: time from a fail-stop
crash to all survivors operational on the reformed ring, as a function
of the token-loss detection timeout.
"""

from repro.bench import headline
from repro.core import ProtocolConfig
from repro.membership import MembershipTimeouts
from repro.net import GIGABIT
from repro.sim import LIBRARY, SimEVSCluster


def measure_reconfiguration(token_loss_ticks):
    cluster = SimEVSCluster(
        4, GIGABIT, LIBRARY,
        ProtocolConfig(personal_window=10, accelerated_window=8),
        MembershipTimeouts(
            token_loss_ticks=token_loss_ticks,
            gather_ticks=20, commit_ticks=40, probe_interval_ticks=15,
        ),
    )
    cluster.run_until_converged(timeout_s=2.0)
    crash_at = cluster.sim.now
    cluster.nodes[1].crash()
    healed_at = cluster.run_until_converged(timeout_s=5.0)
    return healed_at - crash_at


def run_sweep():
    return {ticks: measure_reconfiguration(ticks) for ticks in (15, 30, 60)}


def test_reconfiguration_latency(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    # Healing time scales with the detection timeout and stays well
    # under a second for data-center-grade settings (1 tick = 1 ms).
    assert results[15] < results[60], results
    assert all(t < 1.0 for t in results.values()), results
    # Detection dominates: healing is within a few multiples of the
    # token-loss timeout itself.
    for ticks, took in results.items():
        assert took < ticks * 1e-3 * 12, (ticks, took)

    headline(
        "* membership reconfiguration after crash (4-node 1G ring): "
        + ", ".join(
            "detect=%dms -> healed in %.0fms" % (ticks, took * 1e3)
            for ticks, took in sorted(results.items())
        )
    )
