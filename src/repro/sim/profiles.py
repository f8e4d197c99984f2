"""Implementation cost profiles: library, daemon, and Spread.

The paper evaluates the same protocol inside three implementations that
differ only in per-message processing overhead:

* **library** — a bare prototype: the application lives in the protocol
  process; delivery is a function call.
* **daemon** — a daemon per host with one sending and one receiving
  client over IPC; send/receive paths each cross an IPC socket.
* **spread** — the full Spread toolkit: large descriptive headers and an
  expensive delivery path (group-name analysis, per-client routing).

The constants below are calibrated to the paper's testbed (Xeon
E3-1270v2, single-threaded daemons) so that the simulator lands near the
paper's measured *maximum* throughputs on 10-gigabit (where CPU is the
bottleneck: library ≈ 4.6, daemon ≈ 3.3, Spread ≈ 2.3 Gbps with 1350-byte
payloads) while keeping all three well under the serialization delay on
1-gigabit (where the network is the bottleneck).  Per-byte terms are
fitted from the paper's 8850-byte maxima (7.3 / 6 / 5.3 Gbps).  The
absolute values are testbed-specific; the *shape* of every figure comes
from the protocol dynamics, not from these constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.messages import DATA_HEADER_SIZE


@dataclass(frozen=True)
class CostProfile:
    """Single-threaded CPU costs of one implementation, in seconds/bytes."""

    name: str
    #: Protocol header added to each payload on the wire (the paper uses
    #: 1350-byte payloads in 1500-byte MTUs: 150 bytes of headers incl.
    #: IP/UDP; Spread needs all of it for group/sender names).
    header_bytes: int
    #: CPU to receive + process one data message (recvfrom, buffer insert).
    recv_data_cpu_s: float
    #: CPU to receive + process one token.
    recv_token_cpu_s: float
    #: CPU to multicast one data message (includes reading it from the
    #: sending client over IPC where applicable).
    send_data_cpu_s: float
    #: CPU to unicast the token.
    send_token_cpu_s: float
    #: CPU to deliver one message to the application / receiving client.
    deliver_cpu_s: float
    #: Per-payload-byte CPU on the receive path (kernel copies, checksum).
    recv_byte_cpu_s: float
    #: Per-payload-byte CPU on the send path.
    send_byte_cpu_s: float
    #: Per-payload-byte CPU on the delivery path (IPC copy to client).
    deliver_byte_cpu_s: float

    def data_recv_cost(self, payload_size: int) -> float:
        return self.recv_data_cpu_s + payload_size * self.recv_byte_cpu_s

    def data_send_cost(self, payload_size: int) -> float:
        return self.send_data_cpu_s + payload_size * self.send_byte_cpu_s

    def deliver_cost(self, payload_size: int) -> float:
        return self.deliver_cpu_s + payload_size * self.deliver_byte_cpu_s


#: The library-based prototype: minimal overhead, in-process delivery.
#: Its header is exactly the repo's own wire framing — what
#: ``repro.wire.codec`` puts around a raw-bytes data payload — so the
#: simulated figures and a real-socket deployment share one byte model.
LIBRARY = CostProfile(
    name="library",
    header_bytes=DATA_HEADER_SIZE,
    recv_data_cpu_s=0.80e-6,
    recv_token_cpu_s=0.80e-6,
    send_data_cpu_s=0.60e-6,
    send_token_cpu_s=0.60e-6,
    deliver_cpu_s=0.25e-6,
    recv_byte_cpu_s=0.80e-9,
    send_byte_cpu_s=0.80e-9,
    deliver_byte_cpu_s=0.25e-9,
)

#: The daemon-based prototype: client communication over IPC, one group.
DAEMON = CostProfile(
    name="daemon",
    header_bytes=90,
    recv_data_cpu_s=0.90e-6,
    recv_token_cpu_s=0.90e-6,
    send_data_cpu_s=1.20e-6,   # includes the IPC read from the sender
    send_token_cpu_s=0.70e-6,
    deliver_cpu_s=1.00e-6,     # IPC write to the receiving client
    recv_byte_cpu_s=0.80e-9,
    send_byte_cpu_s=0.80e-9,
    deliver_byte_cpu_s=0.35e-9,
)

#: Full Spread: large headers, expensive delivery (group-name analysis,
#: multi-group routing, per-client fan-out).
SPREAD = CostProfile(
    name="spread",
    header_bytes=150,
    recv_data_cpu_s=1.10e-6,
    recv_token_cpu_s=1.10e-6,
    send_data_cpu_s=1.40e-6,
    send_token_cpu_s=0.80e-6,
    deliver_cpu_s=2.20e-6,
    recv_byte_cpu_s=0.80e-9,
    send_byte_cpu_s=0.80e-9,
    deliver_byte_cpu_s=0.45e-9,
)

PROFILES = {profile.name: profile for profile in (LIBRARY, DAEMON, SPREAD)}
