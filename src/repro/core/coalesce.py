"""Jumbo-datagram coalescing: several protocol packets, one datagram.

The packing layer (:mod:`repro.core.packing`) amortizes *protocol*
overhead by carrying several small application messages inside one
MTU-bounded protocol packet.  This module layers the same idea one
level down: on the post-token flush, several MTU-bounded protocol
packets are coalesced into one *jumbo datagram*, amortizing the
per-datagram costs that packing cannot touch — the frame header, the
CRC, and above all the per-datagram send/receive syscall (Ring Paxos
and HT-Ring Paxos identify exactly this batching as the lever that gets
ring-based atomic broadcast to NIC saturation).

Coalescing never delays traffic: like packing, it is greedy over the
packets of a *single* flush — whatever one token handling emits gets
grouped, a lone packet still departs alone and immediately.  Sequence
numbers, flow control, retransmission and delivery all still operate on
the inner protocol packets; a jumbo datagram is pure transport framing.

The default cap of 8850 bytes matches the paper's large-payload profile
(fig. 4/6): a datagram that IP-fragments across six Ethernet frames.
Coalescing is **off by default** (``ProtocolConfig.jumbo_datagram_bytes
= None``) so default-configuration runs — including the golden
fingerprint gates — are byte-for-byte unchanged.
"""

from __future__ import annotations

from typing import Any, List, Tuple

#: Default jumbo-datagram cap: the paper's fig4/fig6 large-payload size.
DEFAULT_JUMBO_BYTES = 8850

#: The codec's frame header (magic, version, type, body length, CRC-32):
#: a jumbo datagram carries one for all its packets, each of which keeps
#: the rest of its own header.
FRAME_HEADER_BYTES = 12

#: Per-coalesced-packet framing inside a jumbo datagram: u8 inner frame
#: type + u32 inner body length (the inner packets share the outer
#: datagram's header and CRC — that is the amortization).
JUMBO_ENTRY_BYTES = 5

#: Count prefix of a jumbo datagram body (u32 number of inner packets).
JUMBO_COUNT_BYTES = 4


class JumboDatagram:
    """N protocol packets coalesced into one datagram.

    A plain ``__slots__`` value object, like :class:`repro.net.Frame`:
    one is built per flushed batch on the simulated send path.
    ``payload_size`` is the summed payload bytes of the inner packets —
    the quantity per-byte CPU costs apply to — mirroring the attribute
    of the same name on :class:`DataMessage` so cost accounting reads
    one shape for both.
    """

    __slots__ = ("messages", "payload_size")

    def __init__(self, messages: Tuple[Any, ...]) -> None:
        self.messages = messages
        self.payload_size = sum(m.payload_size for m in messages)

    def __len__(self) -> int:
        return len(self.messages)

    def __eq__(self, other: Any) -> bool:
        return (
            type(other) is JumboDatagram and other.messages == self.messages
        )

    def __hash__(self) -> int:
        return hash(self.messages)

    def __repr__(self) -> str:
        return "JumboDatagram(%d packets, %dB payload)" % (
            len(self.messages), self.payload_size,
        )


def coalesce(
    packets,  # Iterable[Tuple[Any, int]]: (packet, datagram-body bytes)
    cap_bytes: int,
    header_bytes: int,
) -> List[Tuple[List[Any], int]]:
    """Greedily group packets into jumbo datagrams bounded by ``cap_bytes``.

    ``packets`` yields ``(packet, size)`` pairs where ``size`` is the
    bytes the packet would contribute to a datagram body (payload for
    the sim's size model, encoded frame body for the wire).  Returns
    ``(group, datagram_size)`` pairs in order; a group of one is meant
    to travel as a plain (non-jumbo) datagram and its reported size says
    so.  A packet larger than the cap by itself still forms its own
    group — fragmentation is the layer below's concern, exactly as in
    :func:`repro.core.packing.pack_next`.
    """
    groups: List[Tuple[List[Any], int]] = []
    batch: List[Any] = []
    base = header_bytes + JUMBO_COUNT_BYTES
    used = base
    for packet, size in packets:
        addition = JUMBO_ENTRY_BYTES + size
        if batch and used + addition > cap_bytes:
            groups.append(_finish(batch, used))
            batch = []
            used = base
        batch.append(packet)
        used += addition
    if batch:
        groups.append(_finish(batch, used))
    return groups


def _finish(batch, used):
    if len(batch) == 1:
        # A plain datagram: no count prefix, no entry framing.
        return batch, used - JUMBO_ENTRY_BYTES - JUMBO_COUNT_BYTES
    return batch, used


def datagram_size(
    payload_sizes,  # Iterable[int]
    header_bytes: int,
) -> int:
    """Size of one jumbo datagram carrying packets of the given sizes."""
    total = header_bytes + JUMBO_COUNT_BYTES
    for size in payload_sizes:
        total += JUMBO_ENTRY_BYTES + size
    return total


def header_bytes_saved(packet_count: int, header_bytes: int) -> int:
    """Datagram-header bytes a jumbo of ``packet_count`` packets saves.

    Versus sending each packet as its own datagram: ``count`` headers
    collapse to one, paid for with the count prefix and one entry per
    packet.  Negative for a count of one — which is why singletons are
    sent plain.
    """
    return (
        packet_count * header_bytes
        - header_bytes
        - JUMBO_COUNT_BYTES
        - packet_count * JUMBO_ENTRY_BYTES
    )
