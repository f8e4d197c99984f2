"""Open membership: brand-new pids joining a live packet-level cluster.

The gossip detection path has no static pid universe — a joiner's
pings introduce it to the members' detectors, whose PeerAlive verdicts
pull the unknown pid into the next gather.  These tests drive that end
to end: spawn mid-run, converge to a ring including the joiner, keep
every EVS axiom, and compose with crash/restart churn.
"""

import pytest

from repro.evs import EVSChecker
from repro.membership import State
from repro.net import GIGABIT, Timeout
from repro.sim.churn import (
    CHURN_TIMEOUTS,
    ChurnOptions,
    _protocol_config,
    churn_schedule,
    run_churn_scenario,
)
from repro.sim.evs_node import SimEVSCluster
from repro.sim.faults import FaultSchedule, Join
from repro.sim.profiles import LIBRARY


def _cluster(n_nodes, seed=1, gossip=True):
    return SimEVSCluster(
        n_nodes, GIGABIT, LIBRARY, _protocol_config(), CHURN_TIMEOUTS,
        gossip=gossip, gossip_seed=seed,
    )


def test_new_pid_joins_a_converged_cluster():
    cluster = _cluster(5)
    cluster.run_until_converged(timeout_s=8.0)
    joiner = cluster.spawn(5)
    cluster.run_until_converged(timeout_s=8.0)
    assert tuple(cluster.nodes[0].process.ring.members) == (0, 1, 2, 3, 4, 5)
    assert joiner.state is State.OPERATIONAL
    assert joiner.incarnation == 0

    checker = EVSChecker()
    checker.check_logs(cluster.logs())
    assert checker.violations == []


def test_joiner_delivers_ordered_traffic():
    cluster = _cluster(4)
    cluster.run_until_converged(timeout_s=8.0)
    joiner = cluster.spawn(4)
    cluster.run_until_converged(timeout_s=8.0)

    def inject(node, tag):
        for i in range(10):
            yield Timeout(0.005)
            node.submit("%s.%d" % (tag, i))

    cluster.sim.spawn(inject(cluster.nodes[0], "old"), "inj-old")
    cluster.sim.spawn(inject(joiner, "new"), "inj-new")
    cluster.run_for(0.5)

    checker = EVSChecker()
    checker.check_logs(cluster.logs())
    assert checker.violations == []
    delivered = joiner.delivered_payloads()
    assert any(str(p).startswith("old.") for p in delivered)
    assert any(str(p).startswith("new.") for p in delivered)
    # All live members agree on the joiner-era suffix (EVS already
    # asserts prefix consistency; this is the readable smoke check).
    assert delivered == cluster.nodes[0].delivered_payloads()[-len(delivered):]


def test_join_fault_event_spawns_through_the_schedule():
    cluster = _cluster(3)
    cluster.run_until_converged(timeout_s=8.0)
    schedule = FaultSchedule([Join(at_s=0.05, pid=3), Join(at_s=0.15, pid=4)])
    schedule.install(cluster)
    cluster.run_for(0.3)
    assert set(cluster.nodes) == {0, 1, 2, 3, 4}
    cluster.run_until_converged(timeout_s=8.0)
    assert tuple(cluster.nodes[0].process.ring.members) == (0, 1, 2, 3, 4)


def test_join_event_serializes_and_is_idempotent():
    schedule = FaultSchedule([Join(at_s=0.1, pid=9)])
    rebuilt = FaultSchedule.from_jsonable(schedule.to_jsonable())
    assert rebuilt.events == schedule.events
    assert "join" in rebuilt.describe()[0]

    cluster = _cluster(3)
    cluster.run_until_converged(timeout_s=8.0)
    cluster.spawn(9)
    # The scheduled join finds pid 9 already present and does nothing.
    rebuilt.install(cluster)
    cluster.run_for(0.2)
    assert sorted(cluster.nodes) == [0, 1, 2, 9]


def test_spawn_rejects_existing_pid_and_probe_mode():
    cluster = _cluster(3)
    with pytest.raises(ValueError):
        cluster.spawn(0)
    probe_cluster = _cluster(3, gossip=False)
    with pytest.raises(RuntimeError):
        probe_cluster.spawn(3)


def test_spawned_node_registers_metrics():
    cluster = _cluster(3)
    cluster.run_until_converged(timeout_s=8.0)
    cluster.spawn(3)
    cluster.run_for(0.1)
    snapshot = cluster.metrics.snapshot()
    joiner_metrics = snapshot["nodes"]["3"]
    assert joiner_metrics["membership.ctrl_frames_sent"] > 0
    assert joiner_metrics["membership.incarnation"] == 0


def test_churn_campaign_with_joins():
    """The satellite's churn-campaign scenario: sustained crash/restart
    churn with two open-membership joins riding along, fully
    EVS-checked and reconverging with the joiners in the ring."""
    options = ChurnOptions(
        seed=5, n_nodes=10, churn_events=3, joins=2,
        converge_timeout_s=8.0,
    )
    schedule = churn_schedule(options)
    kinds = [type(e).__name__ for e in schedule.events]
    assert kinds.count("Join") == 2

    summary = run_churn_scenario(options)
    assert summary["converged"]
    assert summary["violations"] == []
    assert summary["joined_pids"] == [10, 11]
    assert summary["delivered_total"] > 0


def test_joins_require_gossip_in_churn_scenarios():
    with pytest.raises(ValueError):
        run_churn_scenario(ChurnOptions(n_nodes=5, gossip=False, joins=1))
