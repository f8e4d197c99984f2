#!/usr/bin/env python3
"""The Accelerated Ring over real UDP sockets.

Runs four nodes on 127.0.0.1 from one loop — real datagrams through the
kernel, real token acceleration, per the paper's library prototype in
miniature — and verifies the total order end-to-end.

Run:  python examples/real_sockets.py
"""

import time

from repro.core import ProtocolConfig, Service
from repro.emulation import EmulatedRing


def main() -> None:
    config = ProtocolConfig.accelerated(accelerated_window=10)
    print("Starting 4 nodes on localhost UDP ...")
    with EmulatedRing(4, config) as ring:
        started = time.monotonic()
        for pid in range(4):
            for i in range(50):
                service = Service.SAFE if i % 10 == 0 else Service.AGREED
                ring.submit(pid, ("node%d" % pid, i), service)
        collected = ring.collect_deliveries(expected_per_node=200, timeout_s=30.0)
        elapsed = time.monotonic() - started
        sent = sum(n.transport.datagrams_sent for n in ring.nodes.values())

    reference = [m.payload for m in collected[0][:200]]
    for pid in (1, 2, 3):
        assert [m.payload for m in collected[pid][:200]] == reference

    print("All 4 nodes delivered 200 messages in the identical total order.")
    print("Elapsed: %.2f s wall; %d UDP datagrams on the wire." % (elapsed, sent))
    print("First five deliveries: %s" % (reference[:5],))
    print("Safe messages (every 10th) were held for stability before delivery.")


if __name__ == "__main__":
    main()
