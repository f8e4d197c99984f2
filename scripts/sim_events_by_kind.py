#!/usr/bin/env python3
"""Where a simulated run's kernel events go, per ordered message.

    python scripts/sim_events_by_kind.py [--nodes 8 --link 10G --mbps 2000
                                          --seconds 0.1 --seed 1]

Runs one ``SimCluster`` (DAEMON profile, the tuned accelerated config —
``perf/``'s ``sim_10g`` at the defaults) under a counting ``Simulator``
subclass defined here and prints events per message delivered at every
node, by kind: a process resume or timer under its process name with the
digits dropped (``cpu``, ``inject``), a scheduled callback under its
``__qualname__``.  The total is checked against ``sim.event_count``.
docs/SIMULATOR.md carries the table this prints.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
from heapq import heappop, heappush

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.experiments import tuned_configs  # noqa: E402
from repro.core import Service  # noqa: E402
from repro.net import (  # noqa: E402
    PRESETS, Process, Signal, SimulationError, Simulator, Timeout,
)
from repro.sim import DAEMON, cluster as cluster_module  # noqa: E402


class CountingSimulator(Simulator):
    """The kernel's loop, one event per step, tallying each by kind.

    The same order as ``Simulator.run`` — a calendar entry due at ``now``
    before any ready entry, a calendar ``Process`` resumed through the
    ready queue — with its inlined resume as :func:`resume`.
    """

    __slots__ = ("kinds",)

    def __init__(self) -> None:
        super().__init__()
        self.kinds: collections.Counter = collections.Counter()

    def run(self, until=None, max_events=200_000_000) -> None:
        queue, ready, kinds = self._queue, self._ready, self.kinds
        limit = float("inf") if until is None else until
        count = 0
        try:
            while True:
                if count >= max_events:
                    raise SimulationError("exceeded max_events=%d"
                                          % max_events)
                if ready and not (queue and queue[0][0] <= self.now):
                    entry = ready.popleft()
                    if entry.__class__ is Process:
                        kinds["resume " + kind_of(entry)] += 1
                        resume(self, entry)
                    else:
                        kinds["call   " + kind_of(entry[0])] += 1
                        entry[0](*entry[1])
                elif queue and queue[0][0] <= limit:
                    self.now, _, entry = heappop(queue)
                    if entry.__class__ is Process:
                        kinds["timer  " + kind_of(entry)] += 1
                        ready.append(entry)
                    else:
                        kinds["call   " + kind_of(entry[0])] += 1
                        entry[0](*entry[1])
                else:
                    break
                count += 1
            if until is not None:
                self.now = until
        finally:
            self._event_count += count


def resume(sim: Simulator, process: Process) -> None:
    """One process resume, as ``Simulator.run`` inlines it."""
    if not process.alive:
        return
    try:
        yielded = process._send(None)
    except StopIteration:
        process.alive = False
        return
    if yielded.__class__ is Timeout:
        if yielded.delay:
            heappush(sim._queue,
                     (sim.now + yielded.delay, next(sim._tie), process))
        else:
            sim._ready.append((sim._ready.append, (process,)))
    elif yielded.__class__ is Signal:
        yielded._waiters.append(process)
    else:
        process._yield_slow(yielded)


def kind_of(target) -> str:
    if target.__class__ is Process:
        return target.name.rstrip("0123456789")
    return getattr(target, "__qualname__", repr(target))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--link", choices=sorted(PRESETS), default="10G")
    parser.add_argument("--mbps", type=float, default=2000.0)
    parser.add_argument("--seconds", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = PRESETS[args.link]
    offered_bps = args.mbps * 1e6
    cluster_module.Simulator = CountingSimulator  # what SimCluster builds
    try:
        cluster = cluster_module.SimCluster(
            args.nodes, spec, DAEMON, tuned_configs(spec)["accelerated"],
            payload_size=1350, service=Service.AGREED, seed=args.seed,
        )
    finally:
        cluster_module.Simulator = Simulator
    cluster.inject_at_rate(offered_bps, args.seconds)
    cluster.run(args.seconds, 0.3 * args.seconds, offered_bps=offered_bps)

    sim = cluster.sim
    messages = min(node.participant.stats.delivered
                   for node in cluster.nodes.values())
    total = sum(sim.kinds.values())
    if total != sim.event_count:
        print("tally %d != sim.event_count %d" % (total, sim.event_count),
              file=sys.stderr)
        return 1
    print("%d nodes, %s, %.0f Mbps, %g s, seed %d: %d events, %d messages"
          % (args.nodes, args.link, args.mbps, args.seconds, args.seed,
             total, messages))
    print("%-44s %10s %9s" % ("kind", "events", "per msg"))
    for kind, events in sorted(sim.kinds.items(),
                               key=lambda item: (-item[1], item[0])):
        print("%-44s %10d %9.2f" % (kind, events, events / messages))
    print("%-44s %10d %9.2f" % ("total", total, total / messages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
