#!/usr/bin/env python3
"""Quickstart: totally ordered multicast in a few lines.

Builds a 4-participant Accelerated Ring in-process, sends a mix of
Agreed and Safe messages from every participant, and shows that all
participants deliver exactly the same sequence.

Run:  python examples/quickstart.py
"""

from repro import LoopbackRing, ProtocolConfig, Service


def main() -> None:
    # An accelerated ring: participants keep multicasting for up to 10
    # messages after passing the token (the paper's contribution).
    config = ProtocolConfig(accelerated_window=10)
    ring = LoopbackRing([1, 2, 3, 4], config)

    # Every participant submits interleaved work.
    for i in range(5):
        for pid in (1, 2, 3, 4):
            ring.submit(pid, payload=f"update-{pid}-{i}", service=Service.AGREED)
    # A Safe message: delivered only once EVERYONE is known to have it.
    ring.submit(1, payload="commit-checkpoint", service=Service.SAFE)

    ring.run()

    # All participants delivered the identical total order.
    reference = ring.delivered_payloads(1)
    for pid in (2, 3, 4):
        assert ring.delivered_payloads(pid) == reference

    print("Delivered %d messages in the same total order everywhere:" % len(reference))
    for index, payload in enumerate(reference, start=1):
        print("  %2d. %s" % (index, payload))

    stats = ring.participants[1].stats
    print("\nParticipant 1 protocol stats: %s" % (stats,))
    print("Safe message was delivered only after stability "
          "(safe bound = %d)." % ring.participants[1].safe_bound)


if __name__ == "__main__":
    main()
