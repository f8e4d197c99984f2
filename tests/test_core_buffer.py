"""Tests for the receive window's store and local aru tracking."""

import pytest

from repro.core import DeliveryInvariantError, ReceiveWindow, Service
from repro.core.messages import DataMessage


def msg(seq, pid=1, safe=False):
    return DataMessage(
        seq=seq, pid=pid, round=1,
        service=Service.SAFE if safe else Service.AGREED,
    )


def test_contiguous_inserts_advance_aru():
    window = ReceiveWindow()
    for seq in (1, 2, 3):
        assert window.receive(msg(seq)) is not None
    assert window.local_aru == 3


def test_gap_blocks_aru():
    window = ReceiveWindow()
    window.receive(msg(1))
    window.receive(msg(3))
    assert window.local_aru == 1
    window.receive(msg(2))
    assert window.local_aru == 3


def test_out_of_order_fill_catches_up_through_run():
    window = ReceiveWindow()
    for seq in (5, 4, 3, 2):
        window.receive(msg(seq))
    assert window.local_aru == 0
    window.receive(msg(1))
    assert window.local_aru == 5


def test_duplicate_insert_returns_false():
    window = ReceiveWindow()
    assert window.receive(msg(1)) is not None
    assert window.receive(msg(1)) is None
    assert len(window) == 1


def test_missing_between_reports_gaps_only():
    window = ReceiveWindow()
    for seq in (1, 2, 5, 7):
        window.receive(msg(seq))
    assert window.missing_between(window.local_aru, 7) == [3, 4, 6]
    assert window.missing_between(window.local_aru, 5) == [3, 4]
    assert window.missing_between(2, 2) == []


def test_missing_between_excludes_discarded():
    window = ReceiveWindow()
    for seq in (1, 2, 3):
        window.receive(msg(seq))
    window.discard_upto(2)
    assert window.missing_between(0, 3) == []


def test_discard_releases_messages():
    window = ReceiveWindow()
    for seq in range(1, 6):
        window.receive(msg(seq))
    released = window.discard_upto(3)
    assert released == 3
    assert window.get(2) is None
    assert window.get(4) is not None
    assert window.local_aru == 5  # aru survives garbage collection


def test_discard_is_idempotent():
    window = ReceiveWindow()
    for seq in (1, 2):
        window.receive(msg(seq))
    assert window.discard_upto(2) == 2
    assert window.discard_upto(2) == 0
    assert window.discard_upto(1) == 0


def test_discard_beyond_aru_is_a_bug():
    window = ReceiveWindow()
    window.receive(msg(1))
    with pytest.raises(DeliveryInvariantError):
        window.discard_upto(5)
    # Held but not delivered (a Safe message beyond the bound) is no
    # better: discarding it would lose it.
    window.receive(msg(2, safe=True))
    assert window.local_aru == 2 and window.delivered_upto == 1
    with pytest.raises(DeliveryInvariantError):
        window.discard_upto(2)


def test_insert_below_discard_floor_ignored():
    window = ReceiveWindow()
    for seq in (1, 2, 3):
        window.receive(msg(seq))
    window.discard_upto(3)
    assert window.receive(msg(2)) is None  # stale retransmission
    assert window.has(2)  # still counted as held (stable)


def test_has_covers_discarded_and_present():
    window = ReceiveWindow()
    for seq in (1, 2, 3):
        window.receive(msg(seq))
    window.discard_upto(1)
    assert window.has(1) and window.has(3)
    assert not window.has(4)


def test_held_seqs_sorted():
    window = ReceiveWindow()
    for seq in (3, 1, 2):
        window.receive(msg(seq))
    assert list(window.held_seqs()) == [1, 2, 3]
