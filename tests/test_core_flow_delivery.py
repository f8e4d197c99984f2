"""Tests for flow-control arithmetic and the delivery rules."""

import pytest

from repro.core import (
    Participant,
    ProtocolConfig,
    ReceiveWindow,
    Ring,
    Service,
    Token,
    initial_token,
)
from repro.core.flow_control import new_message_budget, updated_fcc
from repro.core.messages import DataMessage


def msg(seq, safe=False, pid=1):
    return DataMessage(
        seq=seq, pid=pid, round=1,
        service=Service.SAFE if safe else Service.AGREED,
    )


# ---------------------------------------------------------------------------
# Flow control (Section III-A-1 formula)
# ---------------------------------------------------------------------------

def config(**kw):
    defaults = dict(personal_window=10, global_window=30, max_seq_gap=100)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_backlog_limits_budget():
    decision = new_message_budget(config(), Token(), backlog=3, num_retransmissions=0)
    assert decision.allowed_new == 3
    assert decision.limited_by_backlog


def test_personal_window_limits_budget():
    decision = new_message_budget(config(), Token(), backlog=50, num_retransmissions=0)
    assert decision.allowed_new == 10
    assert decision.limited_by_personal_window


def test_global_window_subtracts_fcc_and_retransmissions():
    token = Token(fcc=25)
    decision = new_message_budget(config(), token, backlog=50, num_retransmissions=2)
    # 30 - 25 - 2 = 3
    assert decision.allowed_new == 3
    assert decision.limited_by_global_window


def test_budget_never_negative():
    token = Token(fcc=100)
    decision = new_message_budget(config(), token, backlog=50, num_retransmissions=0)
    assert decision.allowed_new == 0


def test_seq_gap_limits_budget():
    # seq is far ahead of the global aru: only the remaining gap is allowed.
    token = Token(seq=95, aru=0)
    decision = new_message_budget(
        config(max_seq_gap=100), token, backlog=50, num_retransmissions=0
    )
    assert decision.allowed_new == 5
    assert decision.limited_by_seq_gap


def test_updated_fcc_swaps_contribution():
    token = Token(fcc=12)
    assert updated_fcc(token, sent_last_round=5, sending_this_round=8) == 15
    assert updated_fcc(token, sent_last_round=12, sending_this_round=0) == 0


# ---------------------------------------------------------------------------
# Receive window: delivery rules (Sections III-A-4, III-B)
# ---------------------------------------------------------------------------

def seqs(messages):
    return [m.seq for m in messages]


def test_agreed_delivered_when_contiguous():
    window = ReceiveWindow()
    delivered = [m for seq in (1, 2, 3) for m in window.receive(msg(seq))]
    assert seqs(delivered) == [1, 2, 3]
    assert window.delivered_upto == 3


def test_gap_stops_delivery():
    window = ReceiveWindow()
    assert seqs(window.receive(msg(1))) == [1]
    assert window.receive(msg(3)) == []
    assert seqs(window.receive(msg(2))) == [2, 3]


def test_safe_waits_for_stability_bound():
    window = ReceiveWindow()
    assert window.receive(msg(1, safe=True)) == []
    window.note_token_sent(1)
    assert window.release() == []  # only one round so far
    window.note_token_sent(1)
    assert seqs(window.release()) == [1]


def test_safe_bound_is_min_of_last_two_arus():
    window = ReceiveWindow()
    window.note_token_sent(5)
    window.note_token_sent(9)
    assert window.safe_bound == 5
    window.note_token_sent(7)
    assert window.safe_bound == 7


def test_safe_bound_is_monotone():
    window = ReceiveWindow()
    window.note_token_sent(5)
    window.note_token_sent(9)
    assert window.safe_bound == 5
    window.note_token_sent(2)  # a lowered aru cannot retract the bound
    assert window.safe_bound == 5


def test_undelivered_safe_blocks_later_agreed():
    window = ReceiveWindow()
    assert window.receive(msg(1, safe=True)) == []
    assert window.receive(msg(2, safe=False)) == []
    window.note_token_sent(2)
    window.note_token_sent(2)
    assert seqs(window.release()) == [1, 2]


def test_discardable_requires_delivery_and_stability():
    window = ReceiveWindow()
    window.receive(msg(1))
    window.receive(msg(2))
    assert window.delivered_upto == 2
    assert window.discardable_upto() == 0  # delivered but not stable
    window.note_token_sent(2)
    window.note_token_sent(2)
    assert window.discardable_upto() == 2


def test_delivered_stat_counts_both_branches():
    # ParticipantStats.delivered is the one delivery count: a token's
    # released run and the runs on_data releases both add to it.
    participant = Participant(1, Ring.of((1, 2)),
                              ProtocolConfig(accelerated_window=0))
    for i in range(3):
        participant.submit(i)
    participant.on_token(initial_token())
    assert participant.stats.delivered == 3
    assert participant.on_data(msg(5, pid=2)) == []
    assert [m.seq for m in participant.on_data(msg(4, pid=2))] == [4, 5]
    assert participant.stats.delivered == participant.delivered_upto == 5
