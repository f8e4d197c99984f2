"""Unit tests for Participant token/data handling mechanics."""

from dataclasses import replace
import pytest

from repro.core import (
    Participant,
    PriorityMethod,
    ProtocolConfig,
    Ring,
    Service,
    Token,
    TokenError,
    TokenRound,
    initial_token,
)


def make_participant(pid=1, members=(1, 2, 3, 4), **config_kw):
    ring = Ring.of(members)
    return Participant(pid, ring, ProtocolConfig(**config_kw))


def submit_n(participant, n, service=Service.AGREED):
    for i in range(n):
        participant.submit(("msg", participant.pid, i), service)


# ---------------------------------------------------------------------------
# Structure of a token handling
# ---------------------------------------------------------------------------

def test_token_position_splits_pre_and_post_sends():
    participant = make_participant(accelerated_window=3, personal_window=10)
    submit_n(participant, 8)
    handled = participant.on_token(initial_token())
    assert [m.seq for m in handled.pre] == [1, 2, 3, 4, 5]
    assert [m.seq for m in handled.post] == [6, 7, 8]
    assert handled.retransmitted == []
    assert all(not m.sent_after_token for m in handled.pre)
    assert all(m.sent_after_token for m in handled.post)


def test_all_sends_post_token_when_under_window():
    participant = make_participant(accelerated_window=10)
    submit_n(participant, 4)
    handled = participant.on_token(initial_token())
    assert handled.pre == []
    assert len(handled.post) == 4
    assert all(m.sent_after_token for m in handled.post)


def test_zero_window_sends_everything_before_token():
    participant = make_participant(accelerated_window=0)
    submit_n(participant, 4)
    handled = participant.on_token(initial_token())
    assert len(handled.pre) == 4 and handled.post == []


def test_token_seq_reflects_unsent_messages():
    # The heart of the acceleration: the token covers messages that will
    # only be multicast after it.
    participant = make_participant(accelerated_window=10)
    submit_n(participant, 6)
    handled = participant.on_token(initial_token())
    assert handled.token.seq == 6
    assert len(handled.post) == 6
    assert all(m.seq <= handled.token.seq for m in handled.post)


def test_seq_numbers_are_consecutive_from_received_seq():
    participant = make_participant()
    submit_n(participant, 3)
    handled = participant.on_token(replace(initial_token(), seq=10, aru=10))
    assert [m.seq for m in handled.pre + handled.post] == [11, 12, 13]


def test_token_forwarded_to_successor():
    participant = make_participant(pid=2, members=(1, 2, 3))
    handled = participant.on_token(replace(initial_token(), hop=1))
    assert handled.dst == 3


def test_hop_increments():
    participant = make_participant()
    token = participant.on_token(replace(initial_token(), hop=4)).token
    assert token.hop == 5


def test_duplicate_token_ignored():
    participant = make_participant()
    first = participant.on_token(replace(initial_token(), hop=4))
    assert first
    again = participant.on_token(replace(initial_token(), hop=4))
    assert again is None
    assert participant.stats.duplicate_tokens == 1


def test_token_for_wrong_ring_rejected():
    participant = make_participant()
    with pytest.raises(TokenError):
        participant.on_token(Token(ring_id=99))


def test_idle_participant_just_passes_token():
    participant = make_participant()
    handled = participant.on_token(initial_token())
    assert handled.retransmitted == handled.pre == handled.post == []
    assert handled.token.seq == 0


# ---------------------------------------------------------------------------
# fcc accounting
# ---------------------------------------------------------------------------

def test_fcc_adds_this_round_and_subtracts_last_round():
    participant = make_participant(personal_window=5, accelerated_window=0)
    submit_n(participant, 5)
    token1 = participant.on_token(initial_token()).token
    assert token1.fcc == 5
    submit_n(participant, 2)
    token2 = participant.on_token(
        replace(token1, hop=4, fcc=20, aru=token1.seq)
    ).token
    # 20 - 5 (ours last round) + 2 (ours now) = 17
    assert token2.fcc == 17


def test_global_window_throttles_sending():
    participant = make_participant(personal_window=50, global_window=10)
    submit_n(participant, 50)
    handled = participant.on_token(replace(initial_token(), fcc=7))
    assert len(handled.pre + handled.post) == 3


# ---------------------------------------------------------------------------
# aru rules
# ---------------------------------------------------------------------------

def test_aru_tracks_seq_when_everyone_caught_up():
    participant = make_participant()
    submit_n(participant, 3)
    token = participant.on_token(initial_token()).token
    assert token.seq == 3 and token.aru == 3 and token.aru_id is None


def test_aru_lowered_when_behind():
    participant = make_participant()
    # Token claims seq=5 all received, but we have received nothing.
    token = participant.on_token(replace(initial_token(), seq=5, aru=5)).token
    assert token.aru == 0
    assert token.aru_id == participant.pid


def test_aru_raised_by_owner_after_catching_up():
    participant = make_participant()
    token1 = participant.on_token(replace(initial_token(), seq=2, aru=2)).token
    assert token1.aru == 0 and token1.aru_id == participant.pid
    # The missing messages arrive between token visits.
    from repro.core.messages import DataMessage

    for seq in (1, 2):
        participant.on_data(
            DataMessage(seq=seq, pid=2, round=1, service=Service.AGREED)
        )
    token2 = participant.on_token(replace(token1, hop=4)).token
    assert token2.aru == 2
    assert token2.aru_id is None  # fully caught up releases ownership


def test_aru_kept_when_owned_by_other():
    participant = make_participant()
    received = replace(initial_token(), seq=5, aru=3, aru_id=7)
    # Our local aru is 0 < 3, so we lower and take ownership.
    token = participant.on_token(received).token
    assert token.aru == 0 and token.aru_id == participant.pid


def test_aru_unchanged_when_other_owner_and_not_lower():
    participant = make_participant()
    from repro.core.messages import DataMessage

    for seq in (1, 2, 3):
        participant.on_data(
            DataMessage(seq=seq, pid=2, round=1, service=Service.AGREED)
        )
    received = replace(initial_token(), seq=5, aru=2, aru_id=7)
    token = participant.on_token(received).token
    # We hold 3 > 2 but 7 owns the aru: leave it alone.
    assert token.aru == 2 and token.aru_id == 7


def test_accelerated_aru_lags_seq_by_a_round():
    # Under acceleration the successor processes the token before the
    # predecessor's post-token messages arrive, so it lowers the aru.
    sender = make_participant(pid=1, members=(1, 2), accelerated_window=10)
    receiver = Participant(2, Ring.of((1, 2)), ProtocolConfig(accelerated_window=10))
    submit_n(sender, 5)
    token = sender.on_token(initial_token()).token
    assert token.aru == token.seq == 5  # sender holds its own messages
    # Receiver gets the token BEFORE any data message (acceleration).
    out = receiver.on_token(token).token
    assert out.aru == 0 and out.aru_id == 2


# ---------------------------------------------------------------------------
# Retransmission behaviour
# ---------------------------------------------------------------------------

def test_answers_requests_pre_token():
    participant = make_participant(accelerated_window=5)
    submit_n(participant, 2)
    first = participant.on_token(initial_token())
    token_back = replace(first.token, hop=4, rtr=(1,))
    handled = participant.on_token(token_back)
    # The answer is the very message first sent, and goes out first.
    assert handled.retransmitted == [first.post[0]]
    assert handled.retransmitted[0].seq == 1
    assert 1 not in handled.token.rtr


def test_does_not_request_current_round_gaps():
    participant = make_participant(accelerated_window=5)
    # First token says seq=10; we received nothing, but these may be
    # unsent post-token messages: no requests yet.
    token1 = participant.on_token(
        replace(initial_token(), seq=10, aru=10)).token
    assert token1.rtr == ()
    # Next round the horizon is 10: now the gaps are real.
    token2 = participant.on_token(replace(token1, hop=4)).token
    assert token2.rtr == tuple(range(1, 11))
    assert participant.stats.retransmissions_requested == 10


def test_original_config_requests_current_round():
    participant = Participant(
        1, Ring.of((1, 2)), ProtocolConfig.original_ring()
    )
    token = participant.on_token(replace(initial_token(), seq=4, aru=4)).token
    assert token.rtr == (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# Delivery
# ---------------------------------------------------------------------------

def test_own_agreed_messages_delivered_immediately():
    participant = make_participant(accelerated_window=0)
    submit_n(participant, 3)
    handled = participant.on_token(initial_token())
    assert [m.seq for m in handled.delivered] == [1, 2, 3]


def test_own_safe_messages_wait_two_rounds():
    participant = make_participant(accelerated_window=0)
    submit_n(participant, 2, Service.SAFE)
    first = participant.on_token(initial_token())
    assert first.delivered == []
    second = participant.on_token(replace(first.token, hop=4))
    assert [m.seq for m in second.delivered] == [1, 2]
    # And once stable they are discarded.
    assert participant.window.discarded_upto == 2
    assert participant.stats.discarded == 2


def test_data_message_delivery_in_order():
    from repro.core.messages import DataMessage

    participant = make_participant()
    out_of_order = [
        DataMessage(seq=2, pid=2, round=1, service=Service.AGREED),
        DataMessage(seq=1, pid=2, round=1, service=Service.AGREED),
    ]
    assert participant.on_data(out_of_order[0]) == []
    # on_data returns the released messages themselves, in seq order.
    released = participant.on_data(out_of_order[1])
    assert released == [out_of_order[1], out_of_order[0]]
    assert [m.seq for m in released] == [1, 2]


def test_duplicate_data_counted_not_redelivered():
    from repro.core.messages import DataMessage

    participant = make_participant()
    message = DataMessage(seq=1, pid=2, round=1, service=Service.AGREED)
    assert len(participant.on_data(message)) == 1
    assert participant.on_data(message) == []
    assert participant.stats.data_duplicates == 1


def test_submit_rejected_participant_must_be_on_ring():
    with pytest.raises(TokenError):
        Participant(9, Ring.of((1, 2)), ProtocolConfig())


def test_progress_tracking_for_token_retransmission():
    participant = make_participant(accelerated_window=0)
    assert not participant.progress_since_token_send()
    participant.on_token(initial_token())
    assert not participant.progress_since_token_send()
    from repro.core.messages import DataMessage

    # Data from a later round proves the token moved on.
    participant.on_data(
        DataMessage(seq=1, pid=2, round=5, service=Service.AGREED)
    )
    assert participant.progress_since_token_send()


# ---------------------------------------------------------------------------
# rebind_ring
# ---------------------------------------------------------------------------

def rotate(ring, config, one, rounds, lose):
    """``rounds`` token rotations of ``ring`` with ``one`` as participant
    1 and fresh participants elsewhere, each submitting three messages
    per turn; a multicast (not a retransmission) of a seq for which
    ``lose(seq)`` holds never reaches participant 1.  Returns what
    participant 1 handed back, in order: each round, and each
    ``on_data`` release with the token priority after it."""
    members = {pid: one if pid == 1 else Participant(pid, ring, config)
               for pid in ring}
    seen = []
    token, holder = initial_token(ring.ring_id), ring.leader
    for _turn in range(rounds * len(ring)):
        submit_n(members[holder], 3)
        handled = members[holder].on_token(token)
        if holder == 1:
            seen.append(handled)
        for index, message in enumerate(
                handled.retransmitted + handled.pre + handled.post):
            for pid, participant in members.items():
                if pid == holder or (
                        pid == 1 and index >= len(handled.retransmitted)
                        and lose(message.seq)):
                    continue
                released = participant.on_data(message)
                if pid == 1:
                    seen.append((released, participant.token_has_priority))
        token, holder = handled.token, handled.dst
    return seen


@pytest.mark.parametrize("config", [
    ProtocolConfig(personal_window=4, accelerated_window=2,
                   priority_method=PriorityMethod.AGGRESSIVE),
    ProtocolConfig.original_ring(personal_window=4),
], ids=["accelerated-m1", "original"])
def test_rebound_participant_runs_as_a_fresh_one(config):
    # Size 4, index 0, predecessor 4 -> size 3, index 2, predecessor 8.
    rebound = Participant(1, Ring.of((1, 2, 3, 4)), config)
    rotate(rebound.ring, config, rebound, 5, lose=lambda seq: seq % 4 == 1)
    rebound.set_accelerated_window(7)
    assert rebound.backlog == 0
    assert rebound.token_has_priority is config.is_accelerated
    new_ring = Ring.of((5, 8, 1), ring_id=3)
    rebound.rebind_ring(new_ring)
    fresh = Participant(1, new_ring, config)

    def lose(seq):
        return seq % 5 == 2

    seen = rotate(new_ring, config, rebound, 6, lose)
    assert seen == rotate(new_ring, config, fresh, 6, lose)
    # Participant 1 requested what it lost, and (Method 1) its priority
    # moved.
    assert any(isinstance(step, TokenRound) and step.token.rtr
               for step in seen)
    assert {step[1] for step in seen if isinstance(step, tuple)} == {
        False, config.is_accelerated}
    for attribute in ("local_aru", "delivered_upto", "safe_bound",
                      "accelerated_window", "last_token_sent"):
        assert getattr(rebound, attribute) == getattr(fresh, attribute)
