"""Tests for retransmission bookkeeping and priority switching."""

from repro.core import PriorityMethod, ReceiveWindow, Service, Token
from repro.core.messages import DataMessage
from repro.core.priority import PriorityTracker
from repro.core.retransmit import RetransmitTracker


def msg(seq=1, pid=2, round=1, post=False):
    return DataMessage(seq=seq, pid=pid, round=round, service=Service.AGREED,
                       sent_after_token=post)


# ---------------------------------------------------------------------------
# RetransmitTracker: the previous-round horizon rule
# ---------------------------------------------------------------------------

def test_no_requests_before_horizon_advances():
    tracker = RetransmitTracker()
    window = ReceiveWindow()
    # Token says seq=10 but the horizon is still 0: nothing is requested
    # even though we have received nothing — those messages may simply
    # not have been sent yet (the accelerated protocol's key subtlety).
    assert tracker.my_new_requests(window) == []
    tracker.advance_horizon(10)
    assert tracker.my_new_requests(window) == list(range(1, 11))


def test_horizon_never_regresses():
    tracker = RetransmitTracker()
    tracker.advance_horizon(10)
    tracker.advance_horizon(5)
    assert tracker.request_horizon == 10


def test_requests_limited_to_actual_gaps():
    tracker = RetransmitTracker()
    window = ReceiveWindow()
    for seq in (1, 2, 4):
        window.receive(msg(seq=seq))
    tracker.advance_horizon(5)
    assert tracker.my_new_requests(window) == [3, 5]


def test_answer_requests_splits_answerable():
    tracker = RetransmitTracker()
    window = ReceiveWindow()
    window.receive(msg(seq=1))
    window.receive(msg(seq=2))
    token = Token(rtr=(1, 3))
    answered, remaining = tracker.answer_requests(token, window)
    assert [m.seq for m in answered] == [1]
    assert remaining == [3]


def test_stale_requests_for_stable_messages_dropped():
    tracker = RetransmitTracker()
    window = ReceiveWindow()
    for seq in (1, 2, 3):
        window.receive(msg(seq=seq))
    window.discard_upto(2)
    token = Token(rtr=(1, 2))
    answered, remaining = tracker.answer_requests(token, window)
    assert answered == [] and remaining == []


def test_stale_request_does_not_strand_lagging_participant():
    # Dropping a request for seq <= discarded_upto is safe ONLY because
    # discard models stability: a message is discarded once every
    # participant holds it, so a laggard that still NEEDS seq 2 keeps
    # the global aru at 1 and nobody discards past it.  This test pins
    # the two halves of that argument: a participant that has discarded
    # the message drops the request without re-propagating it, while
    # any participant that still holds it answers — the laggard is
    # never stranded waiting on a request nobody serves.
    discarder = RetransmitTracker()
    holder = RetransmitTracker()
    discarder_window = ReceiveWindow()
    holder_window = ReceiveWindow()
    for seq in (1, 2, 3):
        discarder_window.receive(msg(seq=seq))
        holder_window.receive(msg(seq=seq))
    discarder_window.discard_upto(3)

    token = Token(rtr=(2,))
    answered, remaining = discarder.answer_requests(token, discarder_window)
    assert answered == [] and remaining == []
    assert discarder.requests_answered == 0

    answered, remaining = holder.answer_requests(token, holder_window)
    assert [m.seq for m in answered] == [2] and remaining == []
    assert holder.requests_answered == 1


def test_stale_and_live_requests_mixed_on_one_token():
    # One token can carry a stale request (already stable here) next to
    # a live one: the stale seq vanishes, the live one is answered or
    # passed on — it must never be confused with the stale one.
    tracker = RetransmitTracker()
    window = ReceiveWindow()
    for seq in (1, 2, 4):
        window.receive(msg(seq=seq))
    window.discard_upto(2)
    token = Token(rtr=(1, 3, 4))
    answered, remaining = tracker.answer_requests(token, window)
    assert [m.seq for m in answered] == [4]  # still held: answered
    assert remaining == [3]                  # a real gap: propagated
    assert tracker.merge_requests(remaining, []) == (3,)


def test_merge_requests_dedupes_and_sorts():
    tracker = RetransmitTracker()
    assert tracker.merge_requests([5, 3], [3, 1]) == (1, 3, 5)


# ---------------------------------------------------------------------------
# PriorityTracker: Methods 1 and 2 (Section III-C)
# ---------------------------------------------------------------------------

def make_tracker(method, ring_size=4, predecessor=2, ring_index=0):
    return PriorityTracker(method, ring_size, predecessor, ring_index)


def test_data_starts_with_priority():
    # Messages multicast before our first token must be processed
    # before it, exactly as in steady state.
    tracker = make_tracker(PriorityMethod.AGGRESSIVE)
    assert not tracker.token_has_priority


def test_first_round_trigger_uses_ring_position():
    # Participant at index 2 on a 4-ring: its first token is hop 3, so
    # the predecessor handling preceding it is hop 2 — predecessor data
    # of round 2 must already trigger method 1.
    tracker = make_tracker(PriorityMethod.AGGRESSIVE, ring_size=4,
                           predecessor=2, ring_index=2)
    tracker.note_data_processed(msg(pid=2, round=1))
    assert not tracker.token_has_priority
    tracker.note_data_processed(msg(pid=2, round=2))
    assert tracker.token_has_priority


def test_data_high_after_token_handled():
    tracker = make_tracker(PriorityMethod.AGGRESSIVE)
    tracker.note_token_handled(hop=5)
    assert not tracker.token_has_priority


def test_method1_raises_on_any_next_round_predecessor_data():
    tracker = make_tracker(PriorityMethod.AGGRESSIVE, ring_size=4, predecessor=2)
    tracker.note_token_handled(hop=5)
    # Predecessor's next handling is hop 5 + 4 - 1 = 8.
    tracker.note_data_processed(msg(pid=2, round=8, post=False))
    assert tracker.token_has_priority


def test_method1_ignores_old_round_data():
    tracker = make_tracker(PriorityMethod.AGGRESSIVE, ring_size=4, predecessor=2)
    tracker.note_token_handled(hop=5)
    tracker.note_data_processed(msg(pid=2, round=7))  # previous handling
    assert not tracker.token_has_priority


def test_method1_ignores_non_predecessor():
    tracker = make_tracker(PriorityMethod.AGGRESSIVE, ring_size=4, predecessor=2)
    tracker.note_token_handled(hop=5)
    tracker.note_data_processed(msg(pid=3, round=8))
    assert not tracker.token_has_priority


def test_method2_needs_post_token_data():
    tracker = make_tracker(PriorityMethod.CONSERVATIVE, ring_size=4, predecessor=2)
    tracker.note_token_handled(hop=5)
    tracker.note_data_processed(msg(pid=2, round=8, post=False))
    assert not tracker.token_has_priority
    tracker.note_data_processed(msg(pid=2, round=8, post=True))
    assert tracker.token_has_priority


def test_method2_with_zero_window_never_raises_mid_stream():
    # With accelerated window 0 nothing is ever sent post-token, so the
    # trigger never fires — the token is only processed when no data is
    # pending, which is the original Ring protocol.
    tracker = make_tracker(PriorityMethod.CONSERVATIVE, ring_size=4, predecessor=2)
    tracker.note_token_handled(hop=5)
    for round_ in (8, 9, 12):
        tracker.note_data_processed(msg(pid=2, round=round_, post=False))
    assert not tracker.token_has_priority


def test_later_round_also_triggers():
    # If we missed a whole rotation, newer rounds must still trigger.
    tracker = make_tracker(PriorityMethod.AGGRESSIVE, ring_size=4, predecessor=2)
    tracker.note_token_handled(hop=5)
    tracker.note_data_processed(msg(pid=2, round=12))
    assert tracker.token_has_priority


def test_reset_restores_initial_state():
    tracker = make_tracker(PriorityMethod.CONSERVATIVE, ring_size=4,
                           predecessor=2, ring_index=1)
    tracker.note_token_handled(hop=9)
    tracker.reset(ring_size=4, predecessor=2, ring_index=1)
    assert not tracker.token_has_priority
    # The round-one trigger works again after reset.
    tracker.note_data_processed(msg(pid=2, round=1, post=True))
    assert tracker.token_has_priority


def test_reset_takes_new_ring_geometry():
    # Membership change: the ring shrinks from 4 to 3 members, our
    # predecessor changes from 2 to 7, and our index moves from 1 to 2.
    # The trigger must key on the NEW predecessor and NEW hop spacing.
    tracker = make_tracker(PriorityMethod.AGGRESSIVE, ring_size=4,
                           predecessor=2, ring_index=1)
    tracker.note_token_handled(hop=9)
    tracker.reset(ring_size=3, predecessor=7, ring_index=2)

    # The old predecessor's messages no longer raise priority...
    tracker.note_data_processed(msg(pid=2, round=2, post=True))
    assert not tracker.token_has_priority
    # ...the new predecessor's do, at the new ring's round-one trigger
    # hop (ring_index + 1 - ring_size + ring_size - 1 == ring_index).
    tracker.note_data_processed(msg(pid=7, round=2, post=True))
    assert tracker.token_has_priority


def test_reset_geometry_trigger_arithmetic_round_one():
    # After reset the first token handling is hop ring_index + 1; the
    # predecessor handling preceding it is hop ring_index, so a message
    # from an earlier round must NOT trigger while one at ring_index must.
    tracker = make_tracker(PriorityMethod.AGGRESSIVE, ring_size=5,
                           predecessor=4, ring_index=0)
    tracker.note_token_handled(hop=23)
    tracker.reset(ring_size=3, predecessor=1, ring_index=2)
    tracker.note_data_processed(msg(pid=1, round=1))
    assert not tracker.token_has_priority
    tracker.note_data_processed(msg(pid=1, round=2))
    assert tracker.token_has_priority
