#!/usr/bin/env python3
"""What the cyclic garbage collector costs a Spread deployment's batches.

    python scripts/gc_census.py [--segments 3 --multicasts 20000 --seed 1
                                 --top 12]

Rebuilds ``perf/``'s ``loop_spread`` shape: a fresh ``SpreadCluster`` of
4 daemons per segment, 16 clients (4 per daemon) in 8 groups of 4, each
client in 2 groups, 200-byte payloads, one multicast in 4 Safe,
``flush()`` every 400 multicasts and then every client ``receive()``s
into a list the segment keeps.  Over the batches only (building the
cluster is outside), it prints the collections of each generation and
the share of wall time spent in them; after the last segment, with its
cluster and inboxes still alive, the live GC-tracked objects by type.
README.md's performance section carries the table this prints.
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import Service  # noqa: E402
from repro.spreadlike import SpreadCluster  # noqa: E402

N_DAEMONS = 4
N_CLIENTS = 16
N_GROUPS = 8
GROUPS_PER_CLIENT = 2
PAYLOAD_BYTES = 200
BATCH = 400
SAFE_EVERY = 4


class CollectorClock:
    """Counts and times collections through ``gc.callbacks`` while on."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1


def deploy(rng: random.Random):
    """A cluster with every client connected and in its two groups."""
    cluster = SpreadCluster(N_DAEMONS)
    clients = [cluster.client("c%d" % c, daemon=c % N_DAEMONS)
               for c in range(N_CLIENTS)]
    slots = [g for g in range(N_GROUPS)
             for _ in range(N_CLIENTS * GROUPS_PER_CLIENT // N_GROUPS)]
    while True:
        rng.shuffle(slots)
        picks = [slots[c * GROUPS_PER_CLIENT:(c + 1) * GROUPS_PER_CLIENT]
                 for c in range(N_CLIENTS)]
        if all(len(set(p)) == GROUPS_PER_CLIENT for p in picks):
            break
    for client, groups in zip(clients, picks):
        for g in groups:
            client.join("g%d" % g)
    cluster.flush()
    for client in clients:
        client.receive()
    return cluster, clients


def run_batches(cluster, clients, rng: random.Random, multicasts: int,
                clock: CollectorClock):
    """The timed region: returns its wall seconds and the inboxes."""
    payload = rng.randbytes(PAYLOAD_BYTES)
    senders = [clients[rng.randrange(N_CLIENTS)] for _ in range(multicasts)]
    groups = ["g%d" % rng.randrange(N_GROUPS) for _ in range(multicasts)]
    services = [Service.SAFE if i % SAFE_EVERY == 0 else Service.AGREED
                for i in range(multicasts)]
    rng.shuffle(services)
    inboxes = [[] for _ in clients]
    gc.callbacks.append(clock)
    start = time.perf_counter()
    try:
        for low in range(0, multicasts, BATCH):
            for i in range(low, min(low + BATCH, multicasts)):
                senders[i].multicast(groups[i], (i, payload), services[i])
            cluster.flush()
            for inbox, client in zip(inboxes, clients):
                inbox.extend(client.receive())
        return time.perf_counter() - start, inboxes
    finally:
        gc.callbacks.remove(clock)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--segments", type=int, default=3)
    parser.add_argument("--multicasts", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    clock = CollectorClock()
    wall = 0.0
    for _segment in range(args.segments):
        cluster, clients = deploy(rng)
        seconds, inboxes = run_batches(cluster, clients, rng,
                                       args.multicasts, clock)
        wall += seconds
    gc.collect()
    live = collections.Counter(type(o).__qualname__ for o in gc.get_objects())

    print("%d segments of %d multicasts, seed %d: %.2f s in the batches"
          % (args.segments, args.multicasts, args.seed, wall))
    print("collections by generation: %s"
          % "/".join(str(n) for n in clock.collections))
    print("collector: %.2f s, %.1f%% of the batches' wall time"
          % (clock.seconds, 100.0 * clock.seconds / wall))
    print("live GC-tracked objects after the last segment "
          "(its cluster and inboxes held): %d" % sum(live.values()))
    print("%-32s %10s" % ("type", "live"))
    for name, count in live.most_common(args.top):
        print("%-32s %10d" % (name, count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
