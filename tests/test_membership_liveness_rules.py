"""Regression tests for the membership liveness rules found by fuzzing.

Each of these pins a concrete rule documented in DESIGN.md Section 7;
they exist so a future refactor cannot silently reintroduce the
livelocks and stale-token crashes the chaos fuzzer originally found.
"""

import pytest

from repro.core import ProtocolConfig
from repro.membership import (
    CommitToken,
    EVSProcess,
    JoinMessage,
    MemberInfo,
    MembershipTimeouts,
    State,
)
from repro.membership.controller import make_ring_id


def gathered_pair():
    """A process at pid 1 that has reached consensus with pid 2 and is
    mid-COMMIT (rotation-1 token sent to 2)."""
    process = EVSProcess(1, ProtocolConfig(), MembershipTimeouts())
    process.bootstrap()
    out = process.handle_ctrl(
        JoinMessage(sender=2, proc_set=frozenset({1, 2}),
                    fail_set=frozenset(), ring_seq=0),
        src=2,
    )
    assert process.state is State.COMMIT
    return process, out


def info_for(process, pid=None, old_ring_id=None):
    return MemberInfo(
        pid=pid if pid is not None else process.pid,
        old_ring_id=old_ring_id if old_ring_id is not None else process.ring.ring_id,
        old_aru=0, high_seq=0, old_members=(process.pid,),
        old_safe_bound=0, old_delivered_upto=0,
    )


def test_joins_do_not_abort_inflight_commit():
    process, _out = gathered_pair()
    attempt = process._commit
    out = process.handle_ctrl(
        JoinMessage(sender=9, proc_set=frozenset({1, 9}),
                    fail_set=frozenset(), ring_seq=999),
        src=9,
    )
    assert out == []
    assert process.state is State.COMMIT
    assert process._commit is attempt  # untouched
    # But the observed ring sequence advanced (no id reuse later).
    assert process._highest_ring_seq >= 999


def test_older_rotation1_cannot_displace_newer_attempt():
    process, _out = gathered_pair()
    current = process._commit
    older = CommitToken(
        new_ring_id=current.new_ring_id - 1,
        members=(1, 2), rotation=1,
    )
    assert process.handle_ctrl(older, src=2) == []
    assert process._commit is current


def test_newer_rotation1_displaces_older_attempt():
    process, _out = gathered_pair()
    current = process._commit
    newer = CommitToken(
        new_ring_id=make_ring_id(
            (current.new_ring_id >> 20) + 5, 1
        ),
        members=(1, 2), rotation=1,
    )
    out = process.handle_ctrl(newer, src=2)
    assert process._commit is not current
    assert process._commit.new_ring_id == newer.new_ring_id
    assert out  # forwarded to the successor


def test_stale_rotation2_with_mismatched_info_ignored():
    process, _out = gathered_pair()
    # A rotation-2 token whose collected info claims we were on some
    # other ring (we reconfigured since rotation 1 of that attempt).
    stale = CommitToken(
        new_ring_id=make_ring_id(50, 1),
        members=(1, 2), rotation=2,
        collected=(
            info_for(process, old_ring_id=process.ring.ring_id + 999),
            info_for(process, pid=2, old_ring_id=123),
        ),
    )
    assert process.handle_ctrl(stale, src=2) == []
    assert process.state is State.COMMIT  # unshaken


def test_join_sender_removed_from_fail_gossip():
    process = EVSProcess(1, ProtocolConfig(), MembershipTimeouts())
    process.bootstrap()
    # A join from 3 whose stale gossip claims 3 itself failed (relayed
    # second-hand): 3 is demonstrably alive, so it must not be failed.
    process.handle_ctrl(
        JoinMessage(sender=3, proc_set=frozenset({1, 3}),
                    fail_set=frozenset({3}), ring_seq=0),
        src=3,
    )
    assert 3 not in process._fail_set
    assert 3 in process._proc_set


def test_gather_escape_hatch_forms_singleton():
    timeouts = MembershipTimeouts(gather_ticks=1)
    process = EVSProcess(1, ProtocolConfig(), timeouts)
    pending = list(process.bootstrap())
    # 9 responds once with a forever-mismatching view and then churns
    # (never converging); the escape hatch must bound the attempts.
    process.handle_ctrl(
        JoinMessage(sender=9, proc_set=frozenset({1, 9, 100}),
                    fail_set=frozenset({2}), ring_seq=0),
        src=9,
    )
    for tick in range(40):
        pending.extend(process.tick())
        while pending:
            out = pending.pop(0)
            if out.kind == "ctrl" and out.dst == 1:
                pending.extend(process.handle_ctrl(out.payload, src=1))
        if process.state is State.OPERATIONAL:
            break
    assert process.state is State.OPERATIONAL
    assert process.ring.members == (1,)


def test_evolving_views_are_not_struck():
    timeouts = MembershipTimeouts(gather_ticks=1)
    process = EVSProcess(1, ProtocolConfig(), timeouts)
    process.bootstrap()
    # 5's join arrives repeatedly, always mismatched but always
    # DIFFERENT (it is converging): it must never be failed.
    for round_number in range(6):
        process.handle_ctrl(
            JoinMessage(
                sender=5,
                proc_set=frozenset({1, 5, 100 + round_number}),
                fail_set=frozenset(),
                ring_seq=0,
            ),
            src=5,
        )
        for _tick in range(3):
            process.tick()
        assert 5 not in process._fail_set, "evolving responder was failed"
