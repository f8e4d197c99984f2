"""Golden digests of what Spread-layer clients receive.

Each scenario drives a cluster through a fixed script and pins the
SHA-256 of every client's received stream: for a message its type,
groups, sender, payload, service and seq; for a membership notice every
field.  A change to how the daemon routes — which clients a cast reaches,
in which order, with which notice — cannot pass unnoticed.

The digests were minted before the daemon routed from a cached fan-out
table and ``on_data`` returned the released messages, and matched
unchanged after.
"""

from __future__ import annotations

import hashlib
import random

from repro.core import Service
from repro.spreadlike import (
    DynamicSpreadCluster,
    GroupMessage,
    MembershipNotice,
    PrivateMessage,
    SpreadCluster,
)


def _client(client_id):
    return (client_id.daemon, client_id.name)


def _encode(event):
    if isinstance(event, GroupMessage):
        return ("group", event.groups, _client(event.sender), event.payload,
                event.service.name, event.seq)
    if isinstance(event, PrivateMessage):
        return ("private", _client(event.sender), event.payload,
                event.service.name, event.seq)
    if isinstance(event, MembershipNotice):
        return ("notice", event.group,
                tuple(_client(c) for c in event.members),
                tuple(_client(c) for c in event.joined),
                tuple(_client(c) for c in event.left), event.seq)
    raise TypeError("unexpected client event %r" % (event,))


def _digest(streams):
    rendered = repr(sorted(
        (name, [_encode(event) for event in events])
        for name, events in streams.items()))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _drain(clients, streams):
    for name, client in clients.items():
        streams[name].extend(client.receive())


def static_script(seed=7, rounds=12, ops_per_round=25):
    """Joins, leaves, overlapping multi-group casts, private casts,
    Agreed and Safe, and one disconnect with traffic still addressed to
    the client before the disconnect is ordered.  -> per-client streams."""
    rng = random.Random(seed)
    cluster = SpreadCluster(4)
    names = ["c%d" % i for i in range(10)]
    clients = {name: cluster.client(name, daemon=i % 4)
               for i, name in enumerate(names)}
    groups = ["g%d" % i for i in range(5)]
    streams = {name: [] for name in names}
    live = list(names)
    for round_ in range(rounds):
        for op in range(ops_per_round):
            if round_ == rounds // 2 and op == ops_per_round // 2:
                clients[live.pop(rng.randrange(len(live)))].disconnect()
            actor = clients[rng.choice(live)]
            draw = rng.random()
            service = Service.SAFE if rng.random() < 0.3 else Service.AGREED
            if draw < 0.2:
                actor.join(rng.choice(groups))
            elif draw < 0.3:
                actor.leave(rng.choice(groups))
            elif draw < 0.85:
                targets = rng.sample(groups, rng.randint(1, 3))
                actor.multicast(targets, ("cast", round_, op), service)
            else:
                dst = clients[rng.choice(names)].client_id
                actor.send_private(dst, ("private", round_, op), service)
        cluster.flush()
        _drain(clients, streams)
    return streams


def dynamic_script():
    """A daemon crash sheds its clients from every group they were in;
    traffic before and after.  -> per-client streams."""
    cluster = DynamicSpreadCluster(4)
    names = ["d%d" % i for i in range(8)]
    clients = {name: cluster.client(name, daemon=i % 4)
               for i, name in enumerate(names)}
    streams = {name: [] for name in names}
    for i, name in enumerate(names):
        clients[name].join("g%d" % (i % 3))
        clients[name].join("g%d" % ((i + 1) % 3))
    cluster.flush()
    _drain(clients, streams)
    for i, name in enumerate(names):
        service = Service.SAFE if i % 2 else Service.AGREED
        clients[name].multicast(["g%d" % (i % 3), "g2"], ("before", i), service)
    cluster.flush()
    _drain(clients, streams)
    cluster.crash_daemon(1)
    cluster.flush()
    _drain(clients, streams)
    survivors = [name for i, name in enumerate(names) if i % 4 != 1]
    for i, name in enumerate(survivors):
        clients[name].multicast(["g%d" % (i % 3)], ("after", i))
    cluster.flush()
    _drain(clients, streams)
    return streams


def test_static_cluster_streams():
    streams = static_script()
    assert sum(len(s) for s in streams.values()) > 500
    assert _digest(streams) == (
        "cc06205f906785955fe4b92c91f06c09f6bd7855b85694db1be04df3b16471a8")


def test_dynamic_cluster_crash_streams():
    streams = dynamic_script()
    shed = [e for e in streams["d0"]
            if isinstance(e, MembershipNotice) and e.left]
    assert shed  # the crash's shedding reached a survivor
    assert _digest(streams) == (
        "812fcd51fd5be6a44245fe72ced2844d6007cc26ce4992af1596b2af0c7cad7f")
