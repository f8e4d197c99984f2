"""Unit tests for the event hub and the action helpers."""

import pytest

from repro.core import (
    Deliver,
    Discard,
    EventHub,
    SendData,
    SendToken,
    Service,
    Token,
    deliveries,
    sends,
    token_of,
)
from repro.core.messages import DataMessage


def msg(seq=1):
    return DataMessage(seq=seq, pid=1, round=1, service=Service.AGREED)


# ---------------------------------------------------------------------------
# EventHub
# ---------------------------------------------------------------------------

def test_subscribe_and_emit():
    hub = EventHub()
    seen = []
    hub.subscribe("ping", lambda *args: seen.append(args))
    hub.emit("ping", 1)
    hub.emit("ping", 2)
    assert seen == [(1,), (2,)]


def test_multiple_subscribers_called_in_order():
    hub = EventHub()
    order = []
    hub.subscribe("e", lambda *args: order.append("first"))
    hub.subscribe("e", lambda *args: order.append("second"))
    hub.emit("e")
    assert order == ["first", "second"]


def test_subscriber_exception_propagates():
    hub = EventHub()

    def broken(*args):
        raise RuntimeError("boom")

    hub.subscribe("e", broken)
    with pytest.raises(RuntimeError):
        hub.emit("e")


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
