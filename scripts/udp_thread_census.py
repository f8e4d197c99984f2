#!/usr/bin/env python3
"""CPU per ordered message on the UDP ring: submitter and ring thread.

    python scripts/udp_thread_census.py [--seconds 5 --warm 1]

Rebuilds ``perf/``'s ``udp_sat`` shape: a 3-node ``EmulatedRing`` with
the default ``ProtocolConfig``, driven closed loop by this thread (the
submitter) with 64 messages outstanding, 1,350-byte payloads, senders in
turn, and nodes 1 and 2 drained every 20 ms.  The process is pinned to
one CPU before the ring starts, so the ring's one thread shares it with
the submitter, as under ``perf/run.py``.  After the warm-up it reads
both threads' CPU clocks at both ends of the measured window and prints
microseconds of CPU per message node 0 delivered: for the submitter,
for the ring thread (every node's passes) and in total.  ``perf/``'s
seams time the layers inside a node, never the submitter; this is where
the hand-offs between the two threads show.  README.md's
performance section carries the table this prints.  Exits 1 if node 0
delivered nothing or out of order.
"""

from __future__ import annotations

import argparse
import os
import queue
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import ProtocolConfig  # noqa: E402
from repro.emulation import EmulatedRing  # noqa: E402

N_NODES = 3
OUTSTANDING = 64
PAYLOAD_BYTES = 1350
SIDE_DRAIN_S = 0.02
MAX_WAIT_S = 0.02


def pin_to_one_cpu() -> int:
    """Confine this process, and the threads it starts later, to the
    highest-numbered CPU it may use; -1 where there is no affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return -1
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_clocks(ring: EmulatedRing) -> list:
    """CPU seconds so far: the submitter's, then the ring thread's."""
    return [time.thread_time(), time.clock_gettime(
        time.pthread_getcpuclockid(ring.thread.ident))]


def drive(seconds: float, warm_s: float):
    """-> (messages node 0 delivered in the window, its length in s,
    CPU seconds per thread over it, node 0's seqs in order)."""
    payload = bytes(PAYLOAD_BYTES)
    with EmulatedRing(N_NODES, ProtocolConfig()) as ring:
        observer = ring.nodes[0].delivered
        side = [node for pid, node in ring.nodes.items() if pid]
        seqs = []
        outstanding = next_id = 0
        side_drained = begin = time.perf_counter()
        window = [begin + warm_s, begin + warm_s + seconds]
        marks = []  # (perf_counter, delivered so far, CPU clocks)
        while True:
            now = time.perf_counter()
            if now >= window[len(marks)]:
                marks.append((now, len(seqs), cpu_clocks(ring)))
                if len(marks) == 2:
                    break
            while outstanding < OUTSTANDING:
                ring.submit(next_id % N_NODES, (next_id, payload))
                next_id += 1
                outstanding += 1
            try:
                seqs.append(observer.get(timeout=MAX_WAIT_S).seq)
                outstanding -= 1
                while True:
                    seqs.append(observer.get_nowait().seq)
                    outstanding -= 1
            except queue.Empty:
                pass
            if now - side_drained >= SIDE_DRAIN_S:
                side_drained = now
                for node in side:
                    node.drain_delivered()
    (t0, n0, cpu0), (t1, n1, cpu1) = marks
    return n1 - n0, t1 - t0, [b - a for a, b in zip(cpu0, cpu1)], seqs


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measured window (default 5)")
    parser.add_argument("--warm", type=float, default=1.0,
                        help="warm-up before the window (default 1)")
    args = parser.parse_args(argv)
    cpu = pin_to_one_cpu()
    messages, elapsed, cpu_s, seqs = drive(args.seconds, args.warm)
    print("udp_sat shape: %d nodes, %d outstanding, %d-byte payloads, "
          "CPU %d; %d msgs in %.2f s (%.0f msgs/s)"
          % (N_NODES, OUTSTANDING, PAYLOAD_BYTES, cpu, messages, elapsed,
             messages / elapsed))
    if not messages or seqs != list(range(1, len(seqs) + 1)):
        print("node 0 delivered nothing, or out of order")
        return 1
    print("%-10s %12s" % ("thread", "CPU us/msg"))
    for name, seconds in zip(("submitter", "ring"), cpu_s):
        print("%-10s %12.1f" % (name, seconds / messages * 1e6))
    print("%-10s %12.1f" % ("total", sum(cpu_s) / messages * 1e6))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
