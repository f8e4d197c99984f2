"""Tests for message types and ring topology."""

from dataclasses import replace
import pytest

from repro.core import DataMessage, Ring, RingError, Service, Token, initial_token
from repro.core.messages import TOKEN_BASE_SIZE, TOKEN_RTR_ENTRY_SIZE


# ---------------------------------------------------------------------------
# DataMessage
# ---------------------------------------------------------------------------

def make_message(**overrides):
    fields = dict(seq=1, pid=1, round=1, service=Service.AGREED)
    fields.update(overrides)
    return DataMessage(**fields)


def test_message_value_semantics():
    # DataMessage is a value object, immutable *by convention*: ``frozen``
    # was dropped for construction speed (messages are built on every
    # initiation in the hot path), but hash and equality stay field-based
    # and nothing in the tree mutates a message after construction.
    a = make_message()
    b = make_message()
    assert a == b
    assert hash(a) == hash(b)
    assert a != make_message(seq=2)


def test_repr_mentions_post_token():
    assert "post-token" in repr(make_message(sent_after_token=True))
    assert "post-token" not in repr(make_message())


# ---------------------------------------------------------------------------
# Token
# ---------------------------------------------------------------------------

def test_initial_token_is_clean():
    token = initial_token(ring_id=3)
    assert token.ring_id == 3
    assert token.hop == 0 and token.seq == 0 and token.aru == 0
    assert token.fcc == 0 and token.rtr == ()
    assert token.aru_id is None


def test_token_evolve_does_not_mutate():
    token = initial_token()
    updated = replace(token, seq=10, hop=1)
    assert (token.seq, token.hop) == (0, 0)
    assert (updated.seq, updated.hop) == (10, 1)


def test_token_size_grows_with_rtr():
    empty = Token()
    loaded = Token(rtr=(1, 2, 3))
    assert empty.size == TOKEN_BASE_SIZE
    assert loaded.size == TOKEN_BASE_SIZE + 3 * TOKEN_RTR_ENTRY_SIZE


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------

def test_ring_successor_and_predecessor_wrap():
    ring = Ring.of([10, 20, 30])
    assert ring.successor(10) == 20
    assert ring.successor(30) == 10
    assert ring.predecessor(10) == 30
    assert ring.predecessor(20) == 10


def test_ring_leader_is_first_member():
    assert Ring.of([7, 3, 5]).leader == 7


def test_singleton_ring():
    ring = Ring.of([42])
    assert ring.successor(42) == 42
    assert ring.predecessor(42) == 42
    assert len(ring) == 1


def test_empty_ring_rejected():
    with pytest.raises(RingError):
        Ring.of([])


def test_duplicate_members_rejected():
    with pytest.raises(RingError):
        Ring.of([1, 2, 1])


def test_unknown_member_rejected():
    ring = Ring.of([1, 2])
    with pytest.raises(RingError):
        ring.successor(9)


def test_ring_iteration_and_contains():
    ring = Ring.of([4, 5, 6])
    assert list(ring) == [4, 5, 6]
    assert 5 in ring and 9 not in ring
