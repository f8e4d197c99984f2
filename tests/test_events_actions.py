"""Unit tests for the participant's observer stages and its round record."""

from dataclasses import replace
import pytest

from repro.core import (
    Participant,
    ProtocolConfig,
    Ring,
    Service,
    TokenRound,
    initial_token,
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
    first = participant.on_token(initial_token()).token
    other = DataMessage(seq=3, pid=2, round=1, service=Service.AGREED)
    participant.on_data(other)
    participant.on_data(other)  # a duplicate is not observed
    participant.on_token(replace(first, hop=first.hop + 1, seq=3, rtr=(1,)))
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
# TokenRound
# ---------------------------------------------------------------------------

def test_token_round_carries_the_released_run():
    # The delivered run is the receive window's release, in total
    # order; with no window every message goes out before the token.
    participant = Participant(1, Ring.of((1,)),
                              ProtocolConfig(accelerated_window=0))
    participant.submit(b"a")
    participant.submit(b"b", Service.SAFE)
    participant.submit(b"c")
    handled = participant.on_token(initial_token())
    assert [m.seq for m in handled.pre] == [1, 2, 3]
    # The Safe message waits for the stability bound, and so does c.
    assert handled.delivered == handled.pre[:1]
    handled = participant.on_token(handled.token)
    assert [m.payload for m in handled.delivered] == [b"b", b"c"]
    assert participant.stats.delivered == 3


def test_token_round_is_a_truthy_record():
    # A round compares by value and is truthy even when it sends and
    # delivers nothing: only a duplicate token handles to ``None``.
    participant = _participant()
    handled = participant.on_token(initial_token())
    assert handled
    assert handled == TokenRound([], [], participant.last_token_sent, 2,
                                 [], [])
    assert participant.on_token(initial_token()) is None
