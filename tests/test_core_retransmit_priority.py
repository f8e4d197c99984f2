"""Tests for retransmission requests and priority switching.

Both rules live in :class:`repro.core.Participant`, so each test drives
one participant with hand-built tokens and data messages and reads what
it hands back: the outgoing token's ``rtr``, the round's retransmitted
messages, and ``token_has_priority``.
"""

from repro.core import (
    Participant, PriorityMethod, ProtocolConfig, Ring, Service, Token,
)
from repro.core.messages import DataMessage


def msg(seq=1, pid=2, round=1, post=False):
    return DataMessage(seq=seq, pid=pid, round=round, service=Service.AGREED,
                       sent_after_token=post)


def participant(members=(1, 2, 3), pid=1, config=None, holding=()):
    """Participant ``pid`` on ``members``, holding the seqs ``holding``
    (sent by another member) and with nothing of its own to send."""
    p = Participant(pid, Ring.of(members), config)
    for seq in holding:
        p.on_data(msg(seq=seq, pid=members[1]))
    return p


def rtr_out(p, hop, seq, rtr=()):
    """The ``rtr`` of the token ``p`` sends on receiving one at ``hop``
    claiming ``seq``."""
    return p.on_token(Token(hop=hop, seq=seq, rtr=rtr)).token.rtr


# ---------------------------------------------------------------------------
# The previous-round horizon rule (Section III-A-2)
# ---------------------------------------------------------------------------

def test_no_requests_before_horizon_advances():
    p = participant()
    # The token says seq=10 but the horizon is still 0: nothing is
    # requested even though we have received nothing — those messages
    # may simply not have been sent yet (the accelerated protocol's key
    # subtlety).
    assert rtr_out(p, hop=0, seq=10) == ()
    # One round later every message the previous token covered is out.
    assert rtr_out(p, hop=3, seq=10) == tuple(range(1, 11))


def test_horizon_never_regresses():
    p = participant()
    rtr_out(p, hop=0, seq=10)
    assert rtr_out(p, hop=3, seq=5) == tuple(range(1, 11))
    assert rtr_out(p, hop=6, seq=5) == tuple(range(1, 11))


def test_requests_limited_to_actual_gaps():
    p = participant(holding=(1, 2, 4))
    rtr_out(p, hop=0, seq=5)
    assert rtr_out(p, hop=3, seq=5) == (3, 5)
    assert p.stats.retransmissions_requested == 2


def test_answer_requests_splits_answerable():
    p = participant(holding=(1, 2))
    handled = p.on_token(Token(seq=2, rtr=(1, 3)))
    assert [m.seq for m in handled.retransmitted] == [1]
    assert handled.token.rtr == (3,)
    assert p.stats.retransmissions_sent == 1


def test_stale_requests_for_stable_messages_dropped():
    p = participant(holding=(1, 2, 3))
    p.window.discard_upto(2)
    handled = p.on_token(Token(seq=3, rtr=(1, 2)))
    assert handled.retransmitted == [] and handled.token.rtr == ()


def test_stale_request_does_not_strand_lagging_participant():
    # Dropping a request for seq <= discarded_upto is safe ONLY because
    # discard models stability: a message is discarded once every
    # participant holds it, so a laggard that still NEEDS seq 2 keeps
    # the global aru at 1 and nobody discards past it.  This test pins
    # the two halves of that argument: a participant that has discarded
    # the message drops the request without re-propagating it, while
    # any participant that still holds it answers — the laggard is
    # never stranded waiting on a request nobody serves.
    discarder = participant(holding=(1, 2, 3))
    holder = participant(holding=(1, 2, 3))
    discarder.window.discard_upto(3)

    handled = discarder.on_token(Token(seq=3, rtr=(2,)))
    assert handled.retransmitted == [] and handled.token.rtr == ()
    assert discarder.stats.retransmissions_sent == 0

    handled = holder.on_token(Token(seq=3, rtr=(2,)))
    assert [m.seq for m in handled.retransmitted] == [2]
    assert handled.token.rtr == ()
    assert holder.stats.retransmissions_sent == 1


def test_stale_and_live_requests_mixed_on_one_token():
    # One token can carry a stale request (already stable here) next to
    # a live one: the stale seq vanishes, the live one is answered or
    # passed on — it must never be confused with the stale one.
    p = participant(holding=(1, 2, 4))
    p.window.discard_upto(2)
    handled = p.on_token(Token(seq=4, rtr=(1, 3, 4)))
    assert [m.seq for m in handled.retransmitted] == [4]  # still held
    assert handled.token.rtr == (3,)                      # a real gap


def test_merge_requests_dedupes_and_sorts():
    # Unanswered requests (5, 3) and our own gaps (1, 3) merge into one
    # sorted rtr with no duplicate.
    p = participant(holding=(2,))
    rtr_out(p, hop=0, seq=3)
    assert rtr_out(p, hop=3, seq=3, rtr=(5, 3)) == (1, 3, 5)


# ---------------------------------------------------------------------------
# Methods 1 and 2 (Section III-C)
# ---------------------------------------------------------------------------

AGGRESSIVE = ProtocolConfig(priority_method=PriorityMethod.AGGRESSIVE)
CONSERVATIVE = ProtocolConfig(priority_method=PriorityMethod.CONSERVATIVE)


def handled_hop_5(config):
    """Participant 1 of a 4-ring at index 0, predecessor 2, after the
    token handling of hop 5: the predecessor's next handling is hop
    5 + 4 - 1 = 8."""
    p = participant(members=(1, 3, 4, 2), config=config)
    p.on_token(Token(hop=4))
    return p


def test_data_starts_with_priority():
    # Messages multicast before our first token must be processed
    # before it, exactly as in steady state.
    assert not participant(config=AGGRESSIVE).token_has_priority


def test_first_round_trigger_uses_ring_position():
    # Participant at index 2 on a 4-ring: its first token is hop 3, so
    # the predecessor handling preceding it is hop 2 — predecessor data
    # of round 2 must already trigger method 1.
    p = participant(members=(5, 2, 1, 6), config=AGGRESSIVE)
    p.on_data(msg(seq=1, pid=2, round=1))
    assert not p.token_has_priority
    p.on_data(msg(seq=2, pid=2, round=2))
    assert p.token_has_priority


def test_data_high_after_token_handled():
    p = participant(members=(1, 3, 4, 2), config=AGGRESSIVE)
    p.on_data(msg(seq=1, pid=2, round=0))
    assert p.token_has_priority
    p.on_token(Token(hop=4))
    assert not p.token_has_priority


def test_method1_raises_on_any_next_round_predecessor_data():
    p = handled_hop_5(AGGRESSIVE)
    p.on_data(msg(pid=2, round=8, post=False))
    assert p.token_has_priority


def test_method1_ignores_old_round_data():
    p = handled_hop_5(AGGRESSIVE)
    p.on_data(msg(pid=2, round=7))  # the previous handling
    assert not p.token_has_priority


def test_method1_ignores_non_predecessor():
    p = handled_hop_5(AGGRESSIVE)
    p.on_data(msg(pid=3, round=8))
    assert not p.token_has_priority


def test_method2_needs_post_token_data():
    p = handled_hop_5(CONSERVATIVE)
    p.on_data(msg(seq=1, pid=2, round=8, post=False))
    assert not p.token_has_priority
    p.on_data(msg(seq=2, pid=2, round=8, post=True))
    assert p.token_has_priority


def test_method2_with_zero_window_never_raises_mid_stream():
    # With accelerated window 0 nothing is ever sent post-token, so the
    # trigger never fires — the token is only processed when no data is
    # pending, which is the original Ring protocol.
    p = handled_hop_5(CONSERVATIVE)
    for seq, round_ in enumerate((8, 9, 12), 1):
        p.on_data(msg(seq=seq, pid=2, round=round_, post=False))
    assert not p.token_has_priority


def test_later_round_also_triggers():
    # If we missed a whole rotation, newer rounds must still trigger.
    p = handled_hop_5(AGGRESSIVE)
    p.on_data(msg(pid=2, round=12))
    assert p.token_has_priority


# ---------------------------------------------------------------------------
# rebind_ring: the round-one state on the new ring's geometry
# ---------------------------------------------------------------------------

def test_reset_restores_initial_state():
    # Index 1, predecessor 2 on a 4-ring, rebound to the same geometry
    # after handling hop 9 (trigger 12).
    p = participant(members=(2, 1, 3, 4), config=CONSERVATIVE)
    p.on_token(Token(hop=8))
    p.on_data(msg(seq=1, pid=2, round=12, post=True))
    assert p.token_has_priority
    p.rebind_ring(Ring.of((2, 1, 3, 4), ring_id=1))
    assert not p.token_has_priority
    # The round-one trigger works again after the rebind.
    p.on_data(msg(seq=1, pid=2, round=1, post=True))
    assert p.token_has_priority


def test_reset_takes_new_ring_geometry():
    # Membership change: the ring shrinks from 4 to 3 members, our
    # predecessor changes from 2 to 7, and our index moves from 1 to 2.
    # The trigger must key on the NEW predecessor and NEW hop spacing.
    p = participant(members=(2, 1, 3, 4), config=AGGRESSIVE)
    p.on_token(Token(hop=8))
    p.rebind_ring(Ring.of((3, 7, 1), ring_id=1))

    # The old predecessor's messages no longer raise priority...
    p.on_data(msg(seq=1, pid=2, round=2, post=True))
    assert not p.token_has_priority
    # ...the new predecessor's do, at the new ring's round-one trigger
    # hop (ring_index + 1 - ring_size + ring_size - 1 == ring_index).
    p.on_data(msg(seq=2, pid=7, round=2, post=True))
    assert p.token_has_priority


def test_reset_geometry_trigger_arithmetic_round_one():
    # After a rebind the first token handling is hop ring_index + 1; the
    # predecessor handling preceding it is hop ring_index, so a message
    # from an earlier round must NOT trigger while one at ring_index must.
    p = participant(members=(1, 5, 6, 7, 4), config=AGGRESSIVE)
    p.on_token(Token(hop=22))
    p.rebind_ring(Ring.of((8, 4, 1), ring_id=1))
    p.on_data(msg(seq=1, pid=4, round=1))
    assert not p.token_has_priority
    p.on_data(msg(seq=2, pid=4, round=2))
    assert p.token_has_priority
