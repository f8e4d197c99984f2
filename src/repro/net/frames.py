"""Wire-level frame model for the simulated network.

A :class:`Frame` is what travels on links: it carries an opaque payload
(the protocol message object), explicit byte sizes for serialization-delay
accounting, and an addressing mode (unicast destination or multicast).

The Accelerated Ring implementations in the paper send data messages with
IP-multicast and the token with UDP unicast; we model both as frames with
different ``dst`` and ``traffic`` values, received on distinct logical
ports (the paper's "different sockets for token and data").
"""

from __future__ import annotations

from typing import Any, Optional

#: Ethernet + IP + UDP framing overhead added to every datagram, in bytes.
#: 14 (Ethernet) + 4 (FCS) + 20 (IP) + 8 (UDP) + 24 (preamble/IPG equivalent).
WIRE_OVERHEAD = 70

#: Maximum payload of a single standard Ethernet frame (no jumbo frames).
ETHERNET_MTU = 1500


class Traffic:
    """What a frame carries, declared by its sender.

    The fabric never opens a payload: the switch counts ingress frames
    per kind, and a host reads TOKEN frames from its token socket and
    every other kind from its data socket.  ``DATA`` is the ordered-data
    plane and ``JUMBO`` its coalesced datagram (wire type 8), ``TOKEN``
    the rotating token, ``GOSSIP`` the SWIM detector's wire types 9-11,
    and ``CTRL`` the membership control plane (joins, commit tokens,
    recovery floods).

    The kinds are plain ``str`` constants, not an ``Enum``: the switch
    uses one as a dict key per ingress frame, and a ``str`` hashes in C.
    Senders pass these very objects, so readers compare with ``is``.
    """

    __slots__ = ()

    DATA = "data"
    JUMBO = "jumbo"
    TOKEN = "token"
    GOSSIP = "gossip"
    CTRL = "ctrl"
    #: Every kind, in accounting order.
    ALL = (DATA, JUMBO, TOKEN, GOSSIP, CTRL)


class Frame:
    """One UDP datagram on the simulated network.

    ``size`` is the datagram size (protocol headers + payload, excluding
    link-layer overhead); :attr:`wire` accounts for fragmentation of
    datagrams larger than the MTU — the paper's 8850-byte experiments use
    kernel-level fragmentation across six frames, and the loss of any
    fragment loses the whole datagram.

    A plain ``__slots__`` class, not a dataclass: tens of thousands of
    frames are built per simulated second, and the hand-written
    ``__init__`` precomputes the fragment count and wire size once so
    every hop — NIC, switch port, receive socket — reads a plain
    attribute (:attr:`fragments`, :attr:`wire`).
    """

    __slots__ = ("src", "dst", "traffic", "size", "payload", "sent_at",
                 "fragments", "wire")

    def __init__(
        self,
        src: int,
        dst: Optional[int],  # None means multicast to every other port
        traffic: str,  # a Traffic kind
        size: int,
        payload: Any,
        sent_at: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.traffic = traffic
        self.size = size
        self.payload = payload
        self.sent_at = sent_at
        fragments = -(-size // ETHERNET_MTU)
        if fragments < 1:
            fragments = 1
        self.fragments = fragments
        self.wire = size + fragments * WIRE_OVERHEAD

    def __repr__(self) -> str:
        target = "mcast" if self.dst is None else str(self.dst)
        return "Frame(%s %d->%s %dB)" % (
            self.traffic, self.src, target, self.size,
        )
