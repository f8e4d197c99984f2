"""The daemon's fan-out table against the derivation it caches.

A Spread-like daemon routes a cast from a table derived from its group
table: per target-groups tuple, the local member names, each once, in
join order.  The table is dropped whenever ``GroupTable.version`` moves.
Here random ordered streams — joins, leaves down to a group's deletion
on its last leave, disconnects and a dynamic daemon's shedding of a
departed daemon's clients, each followed by one cast to every target
tuple — run through one daemon.  Before every cast the test derives the
targets afresh the way routing did before the table existed; the names
routed to must match exactly, in order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataMessage, Service
from repro.evs import ConfigChange, Configuration
from repro.spreadlike import (
    ClientId,
    DynamicSpreadDaemon,
    GroupCast,
    GroupJoin,
    GroupLeave,
    GroupMessage,
    GroupTable,
    SpreadDaemon,
)
from repro.spreadlike.protocol import ClientDisconnect

LOCAL = 0
DAEMONS = (0, 1, 2)
NAMES = ("a", "b", "c")
GROUPS = ("g0", "g1", "g2")
#: Cast after every event, so each event meets a table that holds an
#: entry per tuple; overlapping, reordered and repeated groups included.
TARGETS = (("g0",), ("g1",), ("g0", "g1"), ("g1", "g0"), ("g2", "g0", "g2"))


def derived_targets(table, groups, pid):
    """The oracle: local member names of ``groups``, each once, in join
    order group by group — recomputed from the table on every cast."""
    target_names = []
    seen = set()
    for group in groups:
        for client in table.members(group):
            if client.daemon != pid or client in seen:
                continue
            seen.add(client)
            target_names.append(client.name)
    return target_names


def ordered(seq, payload):
    return DataMessage(seq=seq, pid=LOCAL, round=0, service=Service.AGREED,
                       payload=payload)


class RoutingLog:
    """Connects sessions whose ``enqueue`` records the client's name for
    every GroupMessage, in the order the daemon routes them."""

    def __init__(self, daemon):
        self.daemon = daemon
        self.names = []

    def connect(self, name):
        session = self.daemon.connect(name)
        inner = session.enqueue

        def enqueue(event):
            if isinstance(event, GroupMessage):
                self.names.append(name)
            return inner(event)

        session.enqueue = enqueue
        return session


_clients = st.builds(ClientId, st.sampled_from(DAEMONS), st.sampled_from(NAMES))
_groups = st.sampled_from(GROUPS)
_ops = st.one_of(
    st.tuples(st.just("join"), _groups, _clients),
    st.tuples(st.just("leave"), _groups, _clients),
    st.tuples(st.just("disconnect"), _clients),
    st.tuples(st.just("shed"), st.sampled_from(DAEMONS[1:])),
)


@given(st.lists(_ops, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_fanout_table_routes_as_the_derivation(stream):
    daemon = DynamicSpreadDaemon(LOCAL, lambda payload, service: None)
    log = RoutingLog(daemon)
    for name in NAMES:
        log.connect(name)
    ring_id = 1
    daemon.on_config_change(ConfigChange(Configuration.regular(ring_id, DAEMONS)))
    seqs = iter(range(1, 10_000))
    for op in stream:
        kind = op[0]
        if kind == "shed":
            # The daemon leaves the configuration and comes back: its
            # clients are shed from every group, replica-consistently.
            for members in ([d for d in DAEMONS if d != op[1]], DAEMONS):
                ring_id += 1
                daemon.on_config_change(
                    ConfigChange(Configuration.regular(ring_id, members)))
        elif kind == "disconnect":
            daemon.on_ordered(ordered(next(seqs), ClientDisconnect(op[1])))
            if op[1].daemon == LOCAL:
                log.connect(op[1].name)  # the name is free once ordered
        else:
            event = GroupJoin if kind == "join" else GroupLeave
            daemon.on_ordered(ordered(next(seqs), event(op[1], op[2])))
        for targets in TARGETS:
            expected = derived_targets(daemon.groups, targets, LOCAL)
            del log.names[:]
            seq = next(seqs)
            daemon.on_ordered(ordered(seq, GroupCast(targets, ClientId(1, "s"), seq)))
            assert log.names == expected


def test_table_is_derived_once_per_membership_version(monkeypatch):
    daemon = SpreadDaemon(LOCAL, lambda payload, service: None)
    for name in NAMES:
        daemon.connect(name)
    derivations = []
    derive = daemon._local_targets
    monkeypatch.setattr(daemon, "_local_targets",
                        lambda groups: derivations.append(groups) or derive(groups))
    seq = iter(range(1, 100))

    def apply(payload):
        daemon.on_ordered(ordered(next(seq), payload))

    apply(GroupJoin("g0", ClientId(LOCAL, "a")))
    for _ in range(5):
        apply(GroupCast(("g0",), ClientId(1, "s"), None))
        apply(GroupCast(("g0", "g1"), ClientId(1, "s"), None))
    assert derivations == [("g0",), ("g0", "g1")]
    # A join that changes nothing keeps the table; one that does drops it.
    apply(GroupJoin("g0", ClientId(LOCAL, "a")))
    apply(GroupCast(("g0",), ClientId(1, "s"), None))
    assert len(derivations) == 2
    apply(GroupJoin("g1", ClientId(LOCAL, "b")))
    apply(GroupCast(("g0", "g1"), ClientId(1, "s"), None))
    assert derivations[2:] == [("g0", "g1")]
    assert daemon.messages_routed == 10 + 1 + 2


def test_group_table_version_moves_only_on_a_change():
    table = GroupTable()
    a, b = ClientId(0, "a"), ClientId(1, "b")
    assert table.join("g", a) and table.version == 1
    assert not table.join("g", a) and table.version == 1
    assert not table.leave("g", b) and table.version == 1
    table.join("h", a)
    table.join("h", b)
    assert table.version == 3
    # disconnect leaves through leave(): one bump per group left, and the
    # group it emptied is deleted.
    assert table.disconnect(a) == ("g", "h")
    assert table.version == 5
    assert table.groups() == ("h",)
