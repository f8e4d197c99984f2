"""Tests for flow-control arithmetic and the delivery rules."""

from dataclasses import replace

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
from repro.core import participant as participant_module
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
    defaults = dict(personal_window=10, global_window=30)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def created(config, token, backlog, retransmissions=0):
    """How many messages participant 1 of a 3-ring initiates on
    ``token`` with ``backlog`` queued, answering ``retransmissions``
    requests of its ``rtr`` (seqs 1, 2, ... from participant 2)."""
    p = Participant(1, Ring.of([1, 2, 3]), config)
    requested = tuple(range(1, retransmissions + 1))
    for seq in requested:
        p.on_data(msg(seq, pid=2))
    for i in range(backlog):
        p.submit(i)
    handled = p.on_token(replace(token, rtr=requested))
    assert len(handled.retransmitted) == retransmissions
    return len(handled.pre) + len(handled.post)


def test_backlog_limits_budget():
    assert created(config(), Token(), backlog=3) == 3


def test_personal_window_limits_budget():
    assert created(config(), Token(), backlog=50) == 10


def test_global_window_subtracts_fcc_and_retransmissions():
    # 30 - 25 - 2 = 3
    token = Token(seq=2, aru=2, fcc=25)
    assert created(config(), token, backlog=50, retransmissions=2) == 3


def test_budget_never_negative():
    assert created(config(), Token(fcc=100), backlog=50) == 0


def test_seq_gap_limits_budget(monkeypatch):
    # seq is far ahead of the global aru: only the remaining gap is allowed.
    monkeypatch.setattr(participant_module, "MAX_SEQ_GAP", 100)
    token = Token(seq=95, aru=0)
    assert created(config(), token, backlog=50) == 5


def test_updated_fcc_swaps_contribution():
    # The outgoing fcc replaces our last-round contribution with this
    # round's: 5 sent last round, 8 this round, on a token carrying 12.
    p = Participant(1, Ring.of([1, 2, 3]), config())
    for i in range(5):
        p.submit(i)
    assert p.on_token(Token()).token.fcc == 5
    for i in range(8):
        p.submit(i)
    assert p.on_token(Token(hop=3, seq=5, aru=5, fcc=12)).token.fcc == 15
    # Only our 8 on the token, and nothing sent this round: 0.
    assert p.on_token(Token(hop=6, seq=13, aru=13, fcc=8)).token.fcc == 0


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
