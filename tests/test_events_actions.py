"""Unit tests for the participant's observer stages and the action helpers."""

import pytest

from repro.core import (
    Deliver,
    Discard,
    Participant,
    ProtocolConfig,
    Ring,
    SendData,
    SendToken,
    Service,
    Token,
    deliveries,
    initial_token,
    sends,
    token_of,
)
from repro.core.messages import DataMessage


def msg(seq=1):
    return DataMessage(seq=seq, pid=1, round=1, service=Service.AGREED)


# ---------------------------------------------------------------------------
# Participant.observe
# ---------------------------------------------------------------------------

def _participant():
    return Participant(1, Ring.of((1, 2)), ProtocolConfig(accelerated_window=1))


def test_subscribe_and_emit():
    # Each stage hands its observers the stage's arguments, once per firing.
    participant = _participant()
    seen = []
    participant.observe(
        sent=lambda m: seen.append(("sent", m.seq)),
        received=lambda m: seen.append(("received", m.pid, m.seq)),
        token=lambda received, sent, new, retrans: seen.append(
            ("token", received.hop, sent.hop, new, retrans)),
        retransmitted=lambda m: seen.append(("retransmitted", m.seq)),
    )
    participant.submit(b"a")
    participant.submit(b"b")
    first = token_of(participant.on_token(initial_token()))
    other = DataMessage(seq=3, pid=2, round=1, service=Service.AGREED)
    participant.on_data(other)
    participant.on_data(other)  # a duplicate is not observed
    participant.on_token(first.evolve(hop=first.hop + 1, seq=3, rtr=(1,)))
    assert seen == [
        ("sent", 1), ("sent", 2), ("token", 0, 1, 2, 0),
        ("received", 2, 3),
        ("retransmitted", 1), ("token", 2, 3, 0, 1),
    ]


def test_multiple_subscribers_called_in_order():
    participant = _participant()
    order = []
    participant.observe(token=lambda *args: order.append("first"))
    participant.observe(token=lambda *args: order.append("second"))
    participant.on_token(initial_token())
    assert order == ["first", "second"]


def test_subscriber_exception_propagates():
    participant = _participant()

    def broken(*args):
        raise RuntimeError("boom")

    participant.observe(token=broken)
    with pytest.raises(RuntimeError):
        participant.on_token(initial_token())


def test_observers_survive_rebind_ring():
    participant = _participant()
    handled = []
    participant.observe(token=lambda received, *_: handled.append(
        received.ring_id))
    ring = Ring.of((1, 3), ring_id=7)
    participant.rebind_ring(ring)
    participant.on_token(initial_token(ring_id=7))
    assert handled == [7]


# ---------------------------------------------------------------------------
# Action helpers
# ---------------------------------------------------------------------------

def test_deliveries_extracts_in_order():
    actions = [
        SendData(msg(1)),
        Deliver([msg(2), msg(3)]),
        SendToken(Token(), dst=2),
        Deliver([msg(4)]),
        Discard(1),
    ]
    assert [m.seq for m in deliveries(actions)] == [2, 3, 4]


def test_sends_extracts_data_only():
    actions = [
        SendData(msg(1)),
        SendToken(Token(), dst=2),
        SendData(msg(2), retransmission=True),
    ]
    assert [m.seq for m in sends(actions)] == [1, 2]


def test_token_of_requires_exactly_one():
    with pytest.raises(ValueError):
        token_of([SendData(msg(1))])
    with pytest.raises(ValueError):
        token_of([SendToken(Token(), 1), SendToken(Token(), 1)])
    token = Token(seq=5)
    assert token_of([SendToken(token, 1)]) is token


def test_deliver_carries_a_released_run():
    # One Deliver per token handling carries the whole released run, the
    # list itself: value equality, but no hash over a mutable list.
    run = [msg(1), DataMessage(seq=2, pid=1, round=1, service=Service.SAFE)]
    deliver = Deliver(run)
    assert deliver.messages is run
    assert deliver == Deliver([msg(1), run[1]])
    with pytest.raises(TypeError):
        hash(deliver)


def test_actions_value_semantics():
    # Actions are value objects, immutable by convention (``frozen`` was
    # dropped for construction speed — a SendData per sent message is
    # built in the hot path); hash and equality stay field-based.
    a = SendData(msg(1))
    b = SendData(msg(1))
    assert a == b
    assert hash(a) == hash(b)
    assert a != SendData(msg(1), retransmission=True)
