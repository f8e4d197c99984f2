"""Protocol configuration: flow-control windows and acceleration knobs.

The four windows come straight from Section III-A of the paper:

* ``personal_window`` — max new messages one participant may initiate in a
  single token round.
* ``global_window`` — max messages (new + retransmissions) all
  participants combined may send in a single round, enforced through the
  token's ``fcc`` field.
* ``accelerated_window`` — max messages a participant may send *after*
  passing the token.  Zero disables acceleration (gaps are then requested
  through the received token's seq); combined with the conservative
  priority method this is exactly the original Ring protocol.
* ``max_seq_gap`` — bound on how far ``seq`` may lead the global aru.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ConfigurationError


class PriorityMethod(enum.Enum):
    """When to raise token priority over pending data (Section III-C)."""

    #: Method 1: raise token priority upon processing ANY data message the
    #: ring predecessor sent in the next token round.  Fastest rotation.
    AGGRESSIVE = 1
    #: Method 2: raise token priority only upon processing a data message
    #: the predecessor sent AFTER passing the token (post-token phase).
    #: With accelerated_window == 0 this is the original Ring protocol.
    CONSERVATIVE = 2


class Service(enum.Enum):
    """Delivery service requested for a message (Section II)."""

    #: Reliable, per-sender FIFO.  Latency profile matches AGREED.
    FIFO = "fifo"
    #: Causal order.  Latency profile matches AGREED.
    CAUSAL = "causal"
    #: Total order, respecting causality, delivered as soon as contiguous.
    AGREED = "agreed"
    #: Total order + stability: delivered only once every participant in
    #: the configuration is known to have received the message.
    SAFE = "safe"

    @property
    def requires_stability(self) -> bool:
        return self is Service.SAFE


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    """Tunable parameters of one ring.  Immutable; copy with ``replace``."""

    personal_window: int = 40
    global_window: int = 240
    accelerated_window: int = 20
    max_seq_gap: int = 10_000
    priority_method: PriorityMethod = PriorityMethod.CONSERVATIVE

    #: Pack queued small messages into MTU-bounded protocol packets at
    #: initiation time (Spread's built-in packing, Section IV-A-3).
    pack_messages: bool = False
    #: Payload budget of one packed protocol packet (1500-byte MTU
    #: minus protocol headers).
    max_packet_payload: int = 1350

    #: Coalesce the protocol packets of one flush into jumbo datagrams
    #: up to this many bytes (:mod:`repro.core.coalesce`), amortizing
    #: per-datagram header, CRC and syscall costs.  ``None`` (the
    #: default) disables coalescing; drivers then send one datagram per
    #: protocol packet, byte-for-byte as before.
    jumbo_datagram_bytes: "int | None" = None

    #: Token retransmission timeout (drivers convert to their clock).
    token_retransmit_timeout_s: float = 0.005
    #: How many token retransmissions before the driver declares token
    #: loss to the membership layer.
    token_retransmit_limit: int = 8

    def __post_init__(self) -> None:
        if self.personal_window < 0:
            raise ConfigurationError("personal_window must be >= 0")
        if self.global_window < 1:
            raise ConfigurationError("global_window must be >= 1")
        if self.accelerated_window < 0:
            raise ConfigurationError("accelerated_window must be >= 0")
        if self.max_seq_gap < 1:
            raise ConfigurationError("max_seq_gap must be >= 1")
        if self.token_retransmit_timeout_s <= 0:
            raise ConfigurationError("token_retransmit_timeout_s must be > 0")
        if self.jumbo_datagram_bytes is not None and self.jumbo_datagram_bytes < 1:
            raise ConfigurationError(
                "jumbo_datagram_bytes must be >= 1 (or None to disable)"
            )

    @property
    def is_accelerated(self) -> bool:
        return self.accelerated_window > 0

    @classmethod
    def original_ring(cls, **overrides) -> "ProtocolConfig":
        """The original Totem Ring protocol configuration.

        Accelerated window zero plus the conservative priority method is
        message-for-message identical to the original protocol (paper,
        Section III-D).
        """
        params = dict(accelerated_window=0,
                      priority_method=PriorityMethod.CONSERVATIVE)
        params.update(overrides)
        return cls(**params)

