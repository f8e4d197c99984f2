"""Tests for point-to-point (private) messages in the Spread-like layer."""

import pytest

from repro.core import Service
from repro.spreadlike import (
    MembershipNotice,
    PrivateMessage,
    SpreadCluster,
    SpreadError,
)


def test_private_message_delivered_to_target_only():
    cluster = SpreadCluster(3)
    alice = cluster.client("alice", daemon=0)
    bob = cluster.client("bob", daemon=1)
    carol = cluster.client("carol", daemon=2)
    cluster.flush()
    alice.send_private(bob.client_id, "psst")
    cluster.flush()
    got = bob.receive_private()
    assert len(got) == 1 and got[0].payload == "psst"
    assert got[0].sender == alice.client_id
    assert carol.receive_private() == []
    assert alice.receive_private() == []  # no loopback


def test_private_ordered_with_group_traffic():
    cluster = SpreadCluster(2)
    alice = cluster.client("alice", daemon=0)
    bob = cluster.client("bob", daemon=1)
    bob.join("g")
    cluster.flush()
    bob.receive()
    # Interleave group and private sends from alice; bob must see them
    # in submission order (single total order across kinds).
    alice.multicast("g", "g1")
    alice.send_private(bob.client_id, "p1")
    alice.multicast("g", "g2")
    alice.send_private(bob.client_id, "p2")
    cluster.flush()
    events = bob.receive()
    payloads = [e.payload for e in events]
    assert payloads == ["g1", "p1", "g2", "p2"]
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)


def test_private_to_same_daemon_client():
    cluster = SpreadCluster(1)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=0)
    a.send_private(b.client_id, "local")
    cluster.flush()
    assert [m.payload for m in b.receive_private()] == ["local"]


def test_private_to_disconnected_client_dropped():
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=1)
    b.disconnect()
    cluster.flush()
    a.send_private(b.client_id, "too-late")
    cluster.flush()  # no crash; message silently dropped
    assert not b.connected


def test_private_safe_service():
    cluster = SpreadCluster(3)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=2)
    cluster.flush()
    a.send_private(b.client_id, "stable", service=Service.SAFE)
    cluster.flush()
    got = b.receive_private()
    assert got and got[0].service is Service.SAFE


def test_disconnected_sender_cannot_send_private():
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=1)
    a.disconnect()
    cluster.flush()
    with pytest.raises(SpreadError):
        a.send_private(b.client_id, "zombie")


def test_filtered_receives_leave_other_events_queued():
    # receive_messages() and receive_private() each take their own kind
    # only; every other event stays queued, in order, for a later call.
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=1)
    b.join("g")
    cluster.flush()
    b.receive()
    a.multicast("g", "cast")
    a.send_private(b.client_id, "psst")
    a.join("g")
    a.send_private(b.client_id, "again")
    cluster.flush()
    assert [m.payload for m in b.receive_messages()] == ["cast"]
    assert [m.payload for m in b.receive_private()] == ["psst", "again"]
    assert b.receive_private() == [] and b.receive_messages() == []
    (notice,) = b.receive()
    assert isinstance(notice, MembershipNotice)
    assert notice.group == "g" and notice.joined == (a.client_id,)
    assert b.receive() == []
