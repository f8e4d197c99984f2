"""Protocol message types: data messages and the token.

Field names follow Section III of the paper exactly (``seq``, ``aru``,
``fcc``, ``rtr``, ``pid``, ``round``).  The token's ``hop`` field is the
per-handling counter used for duplicate detection and for the priority
methods: every participant increments it when handling the token, so a
participant's handlings are ``h, h + n, h + 2n, ...`` on an ``n``-ring,
and the data-message ``round`` field records the hop of the handling in
which the message was initiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .config import Service


@dataclass(slots=True, unsafe_hash=True)
class DataMessage:
    """One application message on the ring (Section III-B).

    Instances are immutable by convention: the same object is inserted in
    the sender's buffer, shipped on the (simulated or real) wire, and
    retransmitted on request, so nothing may mutate it after creation.
    ``unsafe_hash`` keeps the field-based hash/eq a frozen dataclass would
    generate while using the plain-store ``__init__`` — a frozen slots
    dataclass routes every field through ``object.__setattr__`` and is
    ~4x slower to construct, which dominated both wire decode and the
    simulator's message-initiation path.
    """

    #: Position in the total order (assigned by the initiator from the token).
    seq: int
    #: Identifier of the initiating participant.
    pid: int
    #: Token hop of the handling in which the message was initiated.
    round: int
    #: Delivery service requested by the application.
    service: Service
    #: Application payload — opaque to the protocol.
    payload: Any = None
    #: Payload size in bytes (drivers add per-implementation headers).
    payload_size: int = 0
    #: True when the message was multicast in the post-token phase.  The
    #: conservative priority method keys on this flag.
    sent_after_token: bool = False
    #: Submission timestamp in the driver's clock (latency accounting).
    submitted_at: Optional[float] = None

    def __repr__(self) -> str:
        return "DataMessage(seq=%d, pid=%d, round=%d, %s%s)" % (
            self.seq, self.pid, self.round, self.service.value,
            ", post-token" if self.sent_after_token else "",
        )


#: Serialized size of a token with an empty rtr list, bytes.  Matches the
#: order of magnitude of Totem/Spread regular tokens, and is exactly what
#: the wire codec (:mod:`repro.wire.codec`) produces for an empty-rtr
#: token — ``tests/test_wire_sizes.py`` fails if the two ever drift.
TOKEN_BASE_SIZE = 72
#: Additional bytes per retransmission request carried on the token
#: (one u32 sequence number in the wire encoding).
TOKEN_RTR_ENTRY_SIZE = 4
#: Wire framing on a data message with a raw bytes payload: the frame
#: header plus the fixed data body of :mod:`repro.wire.codec`.  The
#: library cost profile charges exactly this per-message overhead, so
#: the simulator's figure benchmarks measure real datagram sizes.
DATA_HEADER_SIZE = 60


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """The regular token (Section III-A).

    Immutable by convention (see :class:`DataMessage` for why the class
    is not ``frozen``): a handling builds a *new* token, which keeps
    tokens safe to retransmit and to log.
    """

    #: Identifier of the ring (configuration) this token belongs to.
    ring_id: int = 0
    #: Handling counter; incremented by every participant that handles it.
    hop: int = 0
    #: Highest sequence number claimed by any participant.
    seq: int = 0
    #: All-received-up-to: see the aru rules in Section III-A-2.
    aru: int = 0
    #: Participant that last lowered the aru (None if nobody holds it).
    aru_id: Optional[int] = None
    #: Flow-control count: messages multicast during the last full round.
    fcc: int = 0
    #: Sorted tuple of sequence numbers requested for retransmission.
    rtr: Tuple[int, ...] = ()

    @property
    def size(self) -> int:
        """Serialized size in bytes (the token is a small control message)."""
        return TOKEN_BASE_SIZE + TOKEN_RTR_ENTRY_SIZE * len(self.rtr)

    def __repr__(self) -> str:
        return "Token(ring=%d, hop=%d, seq=%d, aru=%d, aru_id=%s, fcc=%d, rtr=%d reqs)" % (
            self.ring_id, self.hop, self.seq, self.aru,
            self.aru_id, self.fcc, len(self.rtr),
        )


def initial_token(ring_id: int = 0) -> Token:
    """The first regular token after membership establishes a ring."""
    return Token(ring_id=ring_id, hop=0, seq=0, aru=0, aru_id=None, fcc=0, rtr=())
