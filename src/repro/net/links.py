"""Link and switch presets for the paper's two testbeds.

The paper's benchmarks run on a 1-gigabit Cisco Catalyst 2960 and a
10-gigabit Arista 7100T.  The numbers below model the quantities the
protocol is sensitive to: line rate (serialization delay), one-way
propagation/NIC latency, store-and-forward switch forwarding latency, and
per-output-port buffering (whose exhaustion is what bounds how much
multicast overlap the accelerated protocol can exploit).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Physical parameters of a host<->switch link plus the switch path."""

    name: str
    #: Line rate in bits per second (both host NIC and switch port).
    rate_bps: float
    #: One-way propagation + PHY latency host<->switch, seconds.
    propagation_s: float
    #: Fixed switch forwarding latency (lookup + crossbar), seconds.
    switch_latency_s: float
    #: Per-output-port buffer on the switch, bytes.  Small shared-buffer
    #: switches (Catalyst 2960 class) drop multicast bursts readily.
    port_buffer_bytes: int
    #: Host NIC transmit queue, bytes (qdisc + ring buffer).
    nic_queue_bytes: int
    #: Per-socket receive buffer at the host, bytes (SO_RCVBUF).
    socket_buffer_bytes: int

    def serialization_s(self, wire_bytes: int) -> float:
        """Time to clock ``wire_bytes`` onto the link."""
        return wire_bytes * 8.0 / self.rate_bps


#: 1-gigabit testbed (Catalyst 2960 class): modest forwarding latency,
#: small per-port buffering.
GIGABIT = LinkSpec(
    name="1G",
    rate_bps=1e9,
    propagation_s=2e-6,
    switch_latency_s=4e-6,
    port_buffer_bytes=384 * 1024,
    nic_queue_bytes=2 * 1024 * 1024,
    socket_buffer_bytes=4 * 1024 * 1024,
)

#: 10-gigabit testbed (Arista 7100T class): cut-through-era latency but we
#: keep store-and-forward semantics; deeper buffers.
TEN_GIGABIT = LinkSpec(
    name="10G",
    rate_bps=1e10,
    propagation_s=1e-6,
    switch_latency_s=2.5e-6,
    port_buffer_bytes=1024 * 1024,
    nic_queue_bytes=4 * 1024 * 1024,
    socket_buffer_bytes=8 * 1024 * 1024,
)

#: The original Totem environment: 10-megabit shared Ethernet (for the
#: historical-context ablation; the paper's Section I discussion).
TEN_MEGABIT = LinkSpec(
    name="10M",
    rate_bps=1e7,
    propagation_s=10e-6,
    switch_latency_s=0.0,
    port_buffer_bytes=64 * 1024,
    nic_queue_bytes=256 * 1024,
    socket_buffer_bytes=256 * 1024,
)

PRESETS = {spec.name: spec for spec in (GIGABIT, TEN_GIGABIT, TEN_MEGABIT)}
