"""Membership chaos fuzzing: random fault schedules, full EVS checking.

Hypothesis drives random sequences of submits, crashes, partitions and
heals against the membership stack; after every schedule the network is
driven to convergence and every process's full event log must satisfy
every EVS axiom (tests/test_evs_semantics.py documents them).
"""

import random

from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.core import Service
from repro.evs import EVSChecker
from repro.evs.semantics import check_all
from repro.harness.evsnet import EVSNetwork
from repro.membership import MembershipTimeouts

#: Timeouts scaled for 50-process gathers under the harness's
#: one-control-message-per-step drain model (a gather window must fit
#: reading every peer's join with slack for commit traffic).
CHURN_TIMEOUTS = MembershipTimeouts(
    token_loss_ticks=200, gather_ticks=160,
    commit_ticks=320, probe_interval_ticks=80,
)


def live(net):
    return [pid for pid in net.pids if pid not in net.crashed]


def random_partition(rng, pids):
    """Split pids into 1-3 random non-empty groups."""
    groups = [[] for _i in range(rng.randint(1, min(3, len(pids))))]
    for pid in pids:
        rng.choice(groups).append(pid)
    return [set(g) for g in groups if g]


import pytest


@pytest.mark.parametrize("seed,n,operations",
                         [(239, 5, 4), (33, 5, 4), (208, 5, 5)])
def test_pinned_livelock_schedules_converge(seed, n, operations):
    """Regression: schedules that once livelocked the membership race.

    Three distinct mechanisms, each pinned by one schedule: rival
    commit attempts colliding in deterministic lockstep (fixed by
    per-attempt timer jitter and the silence-strike rule), an
    event-amplified join storm whose backlog outgrew the drain rate
    (fixed by rate-limiting join broadcasts), and a stale fail-gossip
    echo chamber whose view flips reset the consensus clock forever
    (fixed by restarting the clock only on proc-set growth).
    """
    run_schedule(seed, n, operations)


@pytest.mark.parametrize("seed", [2, 3, 6])
def test_pinned_churn_meltdown_schedules_converge(seed):
    """Regression: 50-process churn schedules that melted the control
    plane down.

    With the join cooldown at one tick per member, the aggregate join
    arrival rate at each process (peer cooldown broadcasts plus
    gather-timeout rebroadcasts) exceeded the one-message-per-step
    drain capacity at n=50: the control backlog diverged, every
    process argued with an ever-staler past, silence strikes failed
    live members, and membership never converged.  Fixed by widening
    the cooldown to two ticks per member, which keeps the steady-state
    arrival rate strictly below the drain rate.
    """
    run_churn_schedule(seed, n=50, operations=10)


@pytest.mark.parametrize("seed, n, operations",
                         [(5309, 3, 2), (309, 3, 3), (4142, 2, 2), (162, 4, 3)])
def test_pinned_vs_schedules_cut_alike(seed, n, operations):
    """Regression: processes that move together from one regular
    configuration to the same transitional configuration delivered
    different message sets — a virtual synchrony violation.

    In 5309, processes 1 and 3 move from (1,2,3) to transitional (1,3);
    309, 4142 (n=2) and 162 (n=4) came out of a 24,000-schedule sweep
    (``make vs-sweep``).  Each sharer split regular from transitional
    delivery on its LOCAL safe bound, so one Safe message landed on
    opposite sides of the transitional configuration.  Fixed by cutting
    on the largest safe bound among the sharers (DESIGN.md section 7).
    """
    run_schedule(seed, n, operations)


def test_restart_cannot_reuse_ring_id():
    """Regression: an amnesiac restart re-minted an old ring id.

    A process isolated from boot installs singleton ring (seq 1, rep
    pid) and delivers a message under it; after a crash and restart
    its ring-sequence counter restarted from zero, so the new
    incarnation installed the SAME ring id and delivered different
    messages under it — two distinct configurations sharing one
    identity, which the checker flags as a virtual synchrony
    violation.  Fixed by carrying the ring epoch across restarts
    (Totem's stable-storage ring sequence number).
    """
    net = EVSNetwork(range(3))
    net.set_partition([0, 1], [2])
    net.run_until_converged()
    inc0_ring = net.processes[2].ring.ring_id
    net.submit(2, "inc0-msg")
    net.run_quiet(200)
    net.crash(2)
    net.run_quiet(20)
    net.restart(2)
    net.set_partition([0, 1], [2])  # keep the reboot isolated too
    net.run_until_converged()
    assert net.processes[2].ring.ring_id != inc0_ring
    net.submit(2, "inc1-msg")
    net.run_quiet(200)
    net.heal()
    net.run_until_converged()
    net.run_quiet(100)
    checker = EVSChecker()
    checker.check_logs(net.logs())
    checker.assert_ok()


def run_churn_schedule(seed, n, operations):
    """Sustained crash/restart/partition churn at scale, EVS-checked
    across every incarnation's log."""
    rng = random.Random(seed)
    net = EVSNetwork(range(n), timeouts=CHURN_TIMEOUTS)
    net.run_until_converged(max_steps=60_000)
    counter = 0
    for _op in range(operations):
        alive = sorted(set(net.pids) - net.crashed)
        for pid in rng.sample(alive, min(3, len(alive))):
            net.submit(pid, "m%d.%d" % (pid, counter))
            counter += 1
        op = rng.choice(
            ["crash", "restart", "crash", "restart", "partition", "heal"]
        )
        if op == "crash" and len(alive) > 2:
            net.crash(rng.choice(alive))
        elif op == "restart" and net.crashed:
            net.restart(rng.choice(sorted(net.crashed)))
        elif op == "partition" and len(alive) > 3:
            cut = rng.randint(1, len(alive) - 1)
            shuffled = alive[:]
            rng.shuffle(shuffled)
            net.set_partition(shuffled[:cut], shuffled[cut:])
        elif op == "heal":
            net.heal()
        net.run_quiet(rng.randint(20, 300))
    net.heal()
    for pid in sorted(net.crashed):
        net.restart(pid)
    net.run_until_converged(max_steps=120_000)
    net.run_quiet(500)
    checker = EVSChecker()
    checker.check_logs(net.logs())
    checker.assert_ok()


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=5),
    operations=st.integers(min_value=1, max_value=5),
)
def test_random_fault_schedules_preserve_evs(seed, n, operations):
    run_schedule(seed, n, operations)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=500))
def test_random_churn_schedules_preserve_evs(seed):
    """Churn (crash AND restart) at a size where join flood pressure
    is real, with multi-incarnation EVS checking."""
    run_churn_schedule(seed, n=20, operations=6)


def run_schedule(seed, n, operations):
    rng = random.Random(seed)
    pids = list(range(1, n + 1))
    net = EVSNetwork(pids)
    net.run_until_converged(max_steps=40_000)
    submit_count = 0

    for _op in range(operations):
        choice = rng.random()
        alive = live(net)
        if choice < 0.35:
            for _i in range(rng.randint(1, 6)):
                pid = rng.choice(alive)
                service = Service.SAFE if rng.random() < 0.4 else Service.AGREED
                net.submit(pid, ("fuzz", submit_count), service)
                submit_count += 1
            net.run_quiet(rng.randint(5, 80))
        elif choice < 0.55 and len(alive) > 1:
            net.crash(rng.choice(alive))
            net.run_quiet(rng.randint(0, 50))
        elif choice < 0.8:
            net.set_partition(*random_partition(rng, live(net)))
            net.run_quiet(rng.randint(0, 80))
        else:
            net.heal()
            net.run_quiet(rng.randint(0, 80))

    # Settle: heal what remains and converge, then drain deliveries.
    net.heal()
    if live(net):
        net.run_until_converged(max_steps=60_000)
        net.run_quiet(400)

    logs = {
        pid: net.processes[pid].app_log
        for pid in live(net)
    }
    if logs:
        check_all(logs)
        # Every survivor ends on the same ring.
        rings = {net.processes[pid].ring.ring_id for pid in live(net)}
        assert len(rings) == 1
