"""Tests for the Spread-like daemon/group layer."""

import gc

import pytest

from repro.core import DataMessage, Service
from repro.spreadlike import (
    ClientId,
    GroupMessage,
    GroupTable,
    MembershipNotice,
    SpreadCluster,
    SpreadError,
)
from repro.spreadlike.protocol import validate_group_name


# ---------------------------------------------------------------------------
# GroupTable (replicated state machine)
# ---------------------------------------------------------------------------

def cid(daemon, name):
    return ClientId(daemon, name)


def test_join_leave_roundtrip():
    table = GroupTable()
    assert table.join("g", cid(0, "a"))
    assert table.is_member("g", cid(0, "a"))
    assert table.leave("g", cid(0, "a"))
    assert not table.is_member("g", cid(0, "a"))
    assert table.groups() == ()


def test_join_is_idempotent():
    table = GroupTable()
    assert table.join("g", cid(0, "a"))
    assert not table.join("g", cid(0, "a"))
    assert len(table.members("g")) == 1


def test_members_keep_join_order():
    table = GroupTable()
    table.join("g", cid(0, "b"))
    table.join("g", cid(1, "a"))
    assert table.members("g") == (cid(0, "b"), cid(1, "a"))


def test_disconnect_leaves_all_groups():
    table = GroupTable()
    table.join("g1", cid(0, "a"))
    table.join("g2", cid(0, "a"))
    table.join("g2", cid(1, "b"))
    assert table.disconnect(cid(0, "a")) == ("g1", "g2")
    assert table.members("g2") == (cid(1, "b"),)


def test_groups_of_client():
    table = GroupTable()
    table.join("beta", cid(0, "a"))
    table.join("alpha", cid(0, "a"))
    assert table.groups_of(cid(0, "a")) == ("alpha", "beta")


def test_group_name_validation():
    validate_group_name("fine-name")
    with pytest.raises(SpreadError):
        validate_group_name("")
    with pytest.raises(SpreadError):
        validate_group_name("has space")
    with pytest.raises(SpreadError):
        validate_group_name("x" * 100)


def test_group_name_whitespace_is_str_isspace_on_every_code_point():
    rejected = []
    for code in range(0x110000):
        try:
            validate_group_name("g" + chr(code))
        except SpreadError:
            rejected.append(code)
    assert rejected == [c for c in range(0x110000) if chr(c).isspace()]


# ---------------------------------------------------------------------------
# Cluster behaviour
# ---------------------------------------------------------------------------

def test_basic_group_multicast():
    cluster = SpreadCluster(3)
    alice = cluster.client("alice", daemon=0)
    bob = cluster.client("bob", daemon=1)
    alice.join("chat")
    bob.join("chat")
    cluster.flush()
    alice.receive()  # clear membership notices
    bob.receive()
    alice.multicast("chat", "hello")
    cluster.flush()
    got = bob.receive_messages()
    assert len(got) == 1 and got[0].payload == "hello"
    assert got[0].sender == alice.client_id
    # Sender is a member too: self-delivery.
    mine = alice.receive_messages()
    assert len(mine) == 1 and mine[0].payload == "hello"


def test_open_group_semantics_sender_not_member():
    cluster = SpreadCluster(2)
    member = cluster.client("member", daemon=0)
    outsider = cluster.client("outsider", daemon=1)
    member.join("g")
    cluster.flush()
    outsider.multicast("g", "from-outside")
    cluster.flush()
    assert [m.payload for m in member.receive_messages()] == ["from-outside"]
    assert outsider.receive_messages() == []  # not a member: no delivery


def test_non_members_receive_nothing():
    cluster = SpreadCluster(2)
    inside = cluster.client("inside", daemon=0)
    outside = cluster.client("outside", daemon=1)
    inside.join("g")
    cluster.flush()
    inside.multicast("g", "private")
    cluster.flush()
    assert outside.receive_messages() == []


def test_total_order_across_senders_and_daemons():
    cluster = SpreadCluster(4)
    clients = [cluster.client("c%d" % i, daemon=i) for i in range(4)]
    for client in clients:
        client.join("g")
    cluster.flush()
    for client in clients:
        client.receive()
    for i, client in enumerate(clients):
        for k in range(5):
            client.multicast("g", (i, k))
    cluster.flush()
    streams = [[m.payload for m in c.receive_messages()] for c in clients]
    assert all(len(s) == 20 for s in streams)
    assert all(s == streams[0] for s in streams)


def test_multigroup_multicast_delivered_once():
    cluster = SpreadCluster(2)
    both = cluster.client("both", daemon=0)
    both.join("g1")
    both.join("g2")
    sender = cluster.client("sender", daemon=1)
    cluster.flush()
    both.receive()
    sender.multicast(["g1", "g2"], "multi")
    cluster.flush()
    got = both.receive_messages()
    assert len(got) == 1  # member of both target groups, delivered once
    assert got[0].groups == ("g1", "g2")


def test_multigroup_ordering_across_groups():
    # Ordering guarantees hold ACROSS groups: two clients each in one of
    # the two groups see the cross-posted messages in the same order.
    cluster = SpreadCluster(3)
    g1_only = cluster.client("g1only", daemon=0)
    g2_only = cluster.client("g2only", daemon=1)
    sender = cluster.client("sender", daemon=2)
    g1_only.join("g1")
    g2_only.join("g2")
    cluster.flush()
    for i in range(10):
        sender.multicast(["g1", "g2"], ("both", i))
    cluster.flush()
    s1 = [m.payload for m in g1_only.receive_messages()]
    s2 = [m.payload for m in g2_only.receive_messages()]
    assert s1 == s2 == [("both", i) for i in range(10)]


def test_membership_notices_ordered_with_messages():
    cluster = SpreadCluster(2)
    watcher = cluster.client("watcher", daemon=0)
    watcher.join("g")
    cluster.flush()
    watcher.receive()
    # A message, then a join, then a message: the notice must appear
    # between the two messages in watcher's stream.
    outsider = cluster.client("newcomer", daemon=1)
    watcher.multicast("g", "before")
    cluster.flush()
    outsider.join("g")
    cluster.flush()
    watcher.multicast("g", "after")
    cluster.flush()
    events = watcher.receive()
    kinds = [
        e.payload if isinstance(e, GroupMessage) else ("join", tuple(e.joined))
        for e in events
    ]
    assert kinds == ["before", ("join", (outsider.client_id,)), "after"]


def test_membership_notice_contents():
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=1)
    a.join("g")
    cluster.flush()
    b.join("g")
    cluster.flush()
    notices = [e for e in a.receive() if isinstance(e, MembershipNotice)]
    assert notices[-1].members == (a.client_id, b.client_id)
    assert notices[-1].joined == (b.client_id,)


def test_leave_stops_delivery():
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=1)
    a.join("g")
    b.join("g")
    cluster.flush()
    a.leave("g")
    cluster.flush()
    b.multicast("g", "after-leave")
    cluster.flush()
    assert a.receive_messages() == []


def test_leaver_gets_final_notice():
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    a.join("g")
    cluster.flush()
    a.receive()
    a.leave("g")
    cluster.flush()
    notices = [e for e in a.receive() if isinstance(e, MembershipNotice)]
    assert notices and notices[-1].left == (a.client_id,)
    assert a.client_id not in notices[-1].members


def test_disconnect_cleans_up_everywhere():
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=1)
    a.join("g1")
    a.join("g2")
    b.join("g1")
    cluster.flush()
    a.disconnect()
    cluster.flush()
    assert cluster.group_view(0, "g1") == (b.client_id,)
    assert cluster.group_view(1, "g1") == (b.client_id,)
    assert cluster.group_view(0, "g2") == ()
    with pytest.raises(SpreadError):
        a.multicast("g1", "zombie")


def test_duplicate_client_name_rejected():
    cluster = SpreadCluster(1)
    cluster.client("dup", daemon=0)
    with pytest.raises(SpreadError):
        cluster.client("dup", daemon=0)


def test_name_in_use_until_its_disconnect_is_ordered():
    cluster = SpreadCluster(3)
    a = cluster.client("a", daemon=1)
    a.join("secret")
    cluster.flush()
    b = cluster.client("b", daemon=0)
    b.multicast("secret", "m1")
    a.disconnect()
    # Routing goes by name: a newcomer under "a" now would receive m1 and
    # the old session's leave notice for "secret".
    with pytest.raises(SpreadError):
        cluster.client("a", daemon=1)
    cluster.flush()
    a2 = cluster.client("a", daemon=1)
    assert a2.client_id == a.client_id and a2.connected
    b.multicast("secret", "m2")
    b.send_private(a2.client_id, "hello")
    cluster.flush()
    # None of the predecessor's traffic; a private send by name is new.
    assert [e.payload for e in a2.receive()] == ["hello"]
    a2.join("fresh")
    cluster.flush()
    (notice,) = a2.receive()
    assert notice.group == "fresh" and notice.members == (a2.client_id,)


def test_routing_counts_only_events_a_session_accepted():
    cluster = SpreadCluster(2)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=1)
    a.join("g")
    b.join("g")
    cluster.flush()
    here, there = cluster.daemons[0], cluster.daemons[1]
    routed, notices = here.messages_routed, here.notices_sent
    routed_there = there.messages_routed
    b.multicast("g", "m")
    b.send_private(a.client_id, "p")
    a.disconnect()  # not yet ordered: a's session drops what arrives
    cluster.flush()
    # The cast, the private message and a's own leave notice all reached
    # a dropped session; none of them counts.
    assert (here.messages_routed, here.notices_sent) == (routed, notices)
    assert there.messages_routed == routed_there + 1  # b's own copy
    assert [e.payload for e in b.receive_messages()] == ["m"]


def test_same_name_different_daemons_ok():
    cluster = SpreadCluster(2)
    a0 = cluster.client("same", daemon=0)
    a1 = cluster.client("same", daemon=1)
    assert a0.client_id != a1.client_id


def test_group_tables_identical_across_daemons():
    cluster = SpreadCluster(4)
    clients = [cluster.client("c%d" % i, daemon=i % 4) for i in range(8)]
    for i, client in enumerate(clients):
        client.join("g%d" % (i % 3))
    cluster.flush()
    snapshots = [cluster.daemons[d].groups.snapshot() for d in range(4)]
    assert all(s == snapshots[0] for s in snapshots)


def test_safe_service_group_message():
    cluster = SpreadCluster(3)
    a = cluster.client("a", daemon=0)
    b = cluster.client("b", daemon=2)
    a.join("g")
    b.join("g")
    cluster.flush()
    b.receive()
    a.multicast("g", "stable", service=Service.SAFE)
    cluster.flush()
    got = b.receive_messages()
    assert [m.payload for m in got] == ["stable"]
    assert got[0].service is Service.SAFE


def live_data_messages_after(multicasts):
    """Live ``DataMessage``s once ``multicasts`` mixed Agreed/Safe sends
    through a 4-daemon cluster are ordered and received, the cluster
    still alive."""
    cluster = SpreadCluster(4)
    clients = [cluster.client("c%d" % i, daemon=i) for i in range(4)]
    for client in clients:
        client.join("g")
    cluster.flush()
    for i in range(multicasts):
        service = Service.SAFE if i % 4 == 0 else Service.AGREED
        clients[i % 4].multicast("g", i, service=service)
        if i % 100 == 99:
            cluster.flush()
            for client in clients:
                client.receive()
    cluster.flush()
    for client in clients:
        client.receive()
    gc.collect()
    return sum(type(o) is DataMessage for o in gc.get_objects())


def test_cluster_retains_no_delivered_message():
    # A daemon keeps a message only until every window discards it as
    # stable; nothing beside the consumer keeps a copy of a delivery.
    assert live_data_messages_after(400) == live_data_messages_after(4000)
