"""Fault-schedule DSL, switch partitions, and crash/restart machinery."""

import pytest

from repro.net import Frame, GIGABIT, Simulator, Switch, Traffic
from repro.sim import (
    Churn,
    Crash,
    FaultSchedule,
    FaultScheduleError,
    Flap,
    Heal,
    LossSwap,
    Partition,
    Restart,
    SimEVSCluster,
    TokenDrop,
    LIBRARY,
)
from repro.sim.campaign import shrink_schedule
from repro.sim.faults import _TokenDropFilter
from repro.core import ProtocolConfig
from repro.evs import EVSChecker
from repro.membership import MembershipTimeouts


# -- schedule DSL -----------------------------------------------------------

def test_schedule_sorts_by_time_stable():
    schedule = FaultSchedule([
        Heal(0.5), Crash(0.1, 2), TokenDrop(0.1, count=2),
    ])
    kinds = [type(e).__name__ for e in schedule.events]
    # Ties keep authoring order (Crash authored before TokenDrop).
    assert kinds == ["Crash", "TokenDrop", "Heal"]


def test_schedule_rejects_negative_times():
    with pytest.raises(FaultScheduleError):
        FaultSchedule([Crash(-0.1, 0)])
    with pytest.raises(FaultScheduleError):
        FaultSchedule().add(Heal(-1.0))


def test_schedule_without_is_the_shrinking_primitive():
    schedule = FaultSchedule([Crash(0.1, 0), Heal(0.2), TokenDrop(0.3)])
    shrunk = schedule.without(1)
    assert len(shrunk) == 2
    assert [type(e) for e in shrunk.events] == [Crash, TokenDrop]
    # The original is untouched.
    assert len(schedule) == 3


def test_schedule_json_roundtrip():
    schedule = FaultSchedule([
        Crash(0.1, 2),
        Restart(0.4, 2),
        Partition(0.2, ((0, 1), (2,))),
        Heal(0.3),
        TokenDrop(0.15, count=3),
        LossSwap(0.25, model="bernoulli", p=0.01, seed=42, pids=(0, 2)),
    ])
    data = schedule.to_jsonable()
    rebuilt = FaultSchedule.from_jsonable(data)
    assert rebuilt.events == schedule.events
    # to_jsonable output is plain JSON types (lists, not tuples).
    partition_entry = next(e for e in data if e["kind"] == "partition")
    assert partition_entry["groups"] == [[0, 1], [2]]


def test_schedule_rejects_unknown_kind():
    with pytest.raises(FaultScheduleError):
        FaultSchedule.from_jsonable([{"kind": "meteor", "at_s": 0.1}])


def test_schedule_install_fires_events_in_order():
    calls = []

    class DummySwitch:
        host_ids = [0, 1]

        def add_fault_filter(self, predicate):
            calls.append(("filter", predicate.remaining))

        def set_port_loss(self, pid, loss):
            calls.append(("loss", pid))

    class DummyCluster:
        def __init__(self):
            self.sim = Simulator()
            self.switch = DummySwitch()
            self.nodes = {0: type("N", (), {"crashed": True})()}

        def crash(self, pid):
            calls.append(("crash", pid, self.sim.now))

        def restart(self, pid):
            calls.append(("restart", pid, self.sim.now))

        def set_partition(self, *groups):
            calls.append(("partition", groups, self.sim.now))

        def heal(self):
            calls.append(("heal", self.sim.now))

    cluster = DummyCluster()
    FaultSchedule([
        Crash(0.1, 0),
        Partition(0.2, ((0,), (1,))),
        Heal(0.3),
        Restart(0.4, 0),
        TokenDrop(0.5, count=2),
        LossSwap(0.6, model="none"),
    ]).install(cluster, base_time_s=0.0)
    cluster.sim.run(until=1.0)
    assert calls == [
        ("crash", 0, 0.1),
        ("partition", ((0,), (1,)), 0.2),
        ("heal", 0.3),
        ("restart", 0, 0.4),
        ("filter", 2),
        ("loss", 0), ("loss", 1),
    ]


def test_recurring_events_json_roundtrip():
    schedule = FaultSchedule([
        Flap(0.1, pid=1, down_s=0.05, period_s=0.3, repeats=4),
        Churn(0.2, pids=(0, 2, 3), down_s=0.1, period_s=0.5,
              repeats=6, seed=9),
    ])
    data = schedule.to_jsonable()
    rebuilt = FaultSchedule.from_jsonable(data)
    assert rebuilt.events == schedule.events
    # pids survive the JSON list detour as a tuple.
    churn = next(e for e in rebuilt.events if isinstance(e, Churn))
    assert churn.pids == (0, 2, 3)


def test_recurring_events_validate_their_knobs():
    with pytest.raises(FaultScheduleError):
        FaultSchedule([Flap(0.1, pid=1, repeats=0)])
    with pytest.raises(FaultScheduleError):
        FaultSchedule([Churn(0.1, pids=(0, 1), period_s=0.0)])
    with pytest.raises(FaultScheduleError):
        FaultSchedule([Flap(0.1, pid=1, down_s=-0.1)])


def test_weakened_lowers_repeats_strictly():
    schedule = FaultSchedule([Churn(0.1, pids=(0, 1, 2), repeats=6)])
    candidates = schedule.weakened(0)
    repeats = sorted(c.events[0].repeats for c in candidates)
    assert repeats == [1, 3]
    # Non-recurring events and single-cycle recurring events don't
    # weaken: removal (without) is their only shrink.
    assert FaultSchedule([Crash(0.1, 0)]).weakened(0) == []
    assert FaultSchedule([Flap(0.1, pid=1, repeats=1)]).weakened(0) == []


def test_shrink_terminates_on_recurring_events():
    # A failure that needs *some* churn: the shrinker must drop the
    # flap, then weaken the churn's repeat count — and terminate even
    # though the weakening candidates themselves keep "failing"
    # (measure: event count, then total repeats, strictly decreases).
    schedule = FaultSchedule([
        Flap(0.1, pid=1, repeats=8),
        Churn(0.2, pids=(0, 2), repeats=8),
    ])
    trials = []

    def fails(candidate):
        trials.append(candidate)
        return any(isinstance(e, Churn) for e in candidate.events)

    shrunk = shrink_schedule(schedule, fails)
    assert [type(e) for e in shrunk.events] == [Churn]
    assert shrunk.events[0].repeats == 1
    assert len(trials) < 50  # no livelock re-trying equal candidates


def test_shrink_empties_schedule_when_failure_is_unconditional():
    schedule = FaultSchedule([
        Flap(0.1, pid=1, repeats=8),
        Churn(0.2, pids=(0, 2), repeats=8),
    ])
    shrunk = shrink_schedule(schedule, lambda candidate: True)
    assert len(shrunk) == 0


def test_flap_crashes_and_restarts_on_schedule():
    calls = []

    class FlapCluster:
        def __init__(self):
            self.sim = Simulator()
            self.nodes = {1: type("N", (), {"crashed": False})()}

        def crash(self, pid):
            self.nodes[pid].crashed = True
            calls.append(("crash", pid, round(self.sim.now, 6)))

        def restart(self, pid):
            self.nodes[pid].crashed = False
            calls.append(("restart", pid, round(self.sim.now, 6)))

    cluster = FlapCluster()
    FaultSchedule([
        Flap(0.1, pid=1, down_s=0.05, period_s=0.2, repeats=3),
    ]).install(cluster, base_time_s=0.0)
    cluster.sim.run(until=2.0)
    assert calls == [
        ("crash", 1, 0.1), ("restart", 1, 0.15),
        ("crash", 1, 0.3), ("restart", 1, 0.35),
        ("crash", 1, 0.5), ("restart", 1, 0.55),
    ]


def test_churn_never_extinguishes_the_pool():
    # With a pool of two and a long down time, cycle k+1 arrives while
    # cycle k's victim is still down: only one candidate is live, so
    # the generator must skip rather than crash the last node.
    crashes = []

    class ChurnCluster:
        def __init__(self):
            self.sim = Simulator()
            self.nodes = {
                pid: type("N", (), {"crashed": False})() for pid in (0, 1)
            }

        def crash(self, pid):
            self.nodes[pid].crashed = True
            crashes.append((pid, round(self.sim.now, 6)))
            live = [p for p, n in self.nodes.items() if not n.crashed]
            assert live, "churn extinguished the pool"

        def restart(self, pid):
            self.nodes[pid].crashed = False

    cluster = ChurnCluster()
    FaultSchedule([
        Churn(0.1, pids=(0, 1), down_s=0.3, period_s=0.2,
              repeats=5, seed=4),
    ]).install(cluster, base_time_s=0.0)
    cluster.sim.run(until=3.0)
    assert crashes  # it did churn when it safely could


def test_token_drop_filter_swallows_n_tokens_then_detaches():
    removed = []

    class StubSwitch:
        def remove_fault_filter(self, predicate):
            removed.append(predicate)

    switch = StubSwitch()
    fltr = _TokenDropFilter(switch, 2)
    token = Frame(0, 1, Traffic.TOKEN, 70, None)
    data = Frame(0, None, Traffic.DATA, 1400, None)
    assert fltr(data) is False        # data is never touched
    assert fltr(token) is True
    assert not removed                # one budget left
    assert fltr(token) is True
    assert removed == [fltr]          # detached itself
    assert fltr(token) is False       # exhausted: passes tokens through


# -- switch partitions ------------------------------------------------------

def _mesh(n=3):
    sim = Simulator()
    switch = Switch(sim, GIGABIT)
    inboxes = {}
    for host in range(n):
        inboxes[host] = []
        switch.attach(host, inboxes[host].append)
    return sim, switch, inboxes


def test_partition_blocks_cross_group_traffic():
    sim, switch, inboxes = _mesh(3)
    switch.set_partition((0, 1), (2,))
    switch.receive(Frame(0, None, Traffic.DATA, 100, "mcast"))
    switch.receive(Frame(0, 2, Traffic.DATA, 100, "ucast"))
    sim.run(until=1.0)
    assert [f.payload for f in inboxes[1]] == ["mcast"]
    assert inboxes[2] == []
    assert switch.drops_partition == 1  # the unicast
    assert switch.connected(0, 1)
    assert not switch.connected(0, 2)


def test_heal_restores_full_connectivity():
    sim, switch, inboxes = _mesh(3)
    switch.set_partition((0,), (1, 2))
    switch.heal()
    assert not switch.partitioned
    switch.receive(Frame(0, None, Traffic.DATA, 100, "after"))
    sim.run(until=1.0)
    assert [f.payload for f in inboxes[1]] == ["after"]
    assert [f.payload for f in inboxes[2]] == ["after"]


def test_unlisted_hosts_are_isolated():
    sim, switch, inboxes = _mesh(3)
    switch.set_partition((0, 1))  # host 2 not listed anywhere
    assert not switch.connected(0, 2)
    assert not switch.connected(2, 1)
    assert switch.connected(2, 2)


# -- crash / restart on the packet-level cluster ----------------------------

def _cluster(n=3):
    return SimEVSCluster(
        n, GIGABIT, LIBRARY,
        ProtocolConfig(personal_window=10, accelerated_window=8),
        MembershipTimeouts(token_loss_ticks=30, gather_ticks=20,
                           commit_ticks=40, probe_interval_ticks=15),
    )


def test_restart_rejoins_as_new_incarnation():
    cluster = _cluster(3)
    cluster.run_until_converged(timeout_s=3.0)
    cluster.nodes[0].submit("before")
    cluster.run_for(0.2)
    cluster.crash(1)
    cluster.run_until_converged(timeout_s=3.0)
    cluster.restart(1)
    cluster.run_until_converged(timeout_s=3.0)
    cluster.nodes[0].submit("after")
    cluster.run_for(0.3)

    node = cluster.nodes[1]
    assert node.incarnation == 1
    logs = cluster.logs()
    assert (1, 0) in logs and (1, 1) in logs
    # The new incarnation has amnesia: it sees "after" but not "before".
    new_payloads = [
        e.payload for e in logs[(1, 1)] if hasattr(e, "payload")
    ]
    assert "after" in new_payloads and "before" not in new_payloads
    # And the whole history satisfies every EVS axiom.
    checker = EVSChecker()
    assert checker.check_logs(logs) == []


def test_partitioned_cluster_converges_per_component():
    cluster = _cluster(3)
    cluster.run_until_converged(timeout_s=3.0)
    cluster.set_partition((0, 1), (2,))
    cluster.run_until_converged(timeout_s=4.0)
    assert tuple(cluster.nodes[0].process.ring.members) == (0, 1)
    assert tuple(cluster.nodes[2].process.ring.members) == (2,)
    cluster.heal()
    cluster.run_until_converged(timeout_s=4.0)
    assert tuple(cluster.nodes[2].process.ring.members) == (0, 1, 2)
    checker = EVSChecker()
    assert checker.check_logs(cluster.logs()) == []
