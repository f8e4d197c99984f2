"""The Accelerated Ring ordering protocol (sans-IO core).

This package implements the paper's contribution as a pure state machine:
drivers feed tokens and data messages in.  A token handling comes back
as one :class:`repro.core.TokenRound` whose fields are the paper's
steps, a data message as the messages it released.  See
:class:`repro.core.Participant` for the entry point, and
:class:`repro.core.RingDriver` for the one loop that runs it on every
substrate.

Typical use::

    from repro.core import Participant, ProtocolConfig, Ring, Service
    from repro.core import initial_token

    ring = Ring.of([1, 2, 3])
    config = ProtocolConfig.accelerated(accelerated_window=20)
    participants = {pid: Participant(pid, ring, config) for pid in ring}
    participants[1].submit(b"hello", Service.AGREED, payload_size=5)
    handled = participants[1].on_token(initial_token())
    # Run in field order: handled.retransmitted and handled.pre, then
    # handled.token to handled.dst, then handled.post (here: b"hello"),
    # then deliver handled.delivered.
"""

from .autotune import AcceleratedWindowTuner, TunerConfig
from .buffer import ReceiveBuffer
from .config import PriorityMethod, ProtocolConfig, Service
from .delivery import DeliveryEngine
from .driver import DriverPort, Inbox, RingDriver
from .errors import (
    ConfigurationError,
    DeliveryInvariantError,
    ProtocolError,
    RingError,
    TokenError,
)
from .coalesce import (
    DEFAULT_JUMBO_BYTES,
    JUMBO_ENTRY_BYTES,
    JumboDatagram,
    coalesce,
)
from .flow_control import FlowControlDecision, new_message_budget, updated_fcc
from .messages import DataMessage, Token, initial_token
from .packing import ITEM_HEADER_BYTES, PackedItem, PackedPayload, pack_next
from .participant import Participant, ParticipantStats, TokenRound
from .priority import PriorityTracker
from .retransmit import RetransmitTracker
from .ring import Ring

__all__ = [
    "Participant", "ParticipantStats", "TokenRound",
    "ProtocolConfig", "PriorityMethod", "Service",
    "Ring", "Token", "DataMessage", "initial_token",
    "RingDriver", "Inbox", "DriverPort",
    "ReceiveBuffer", "DeliveryEngine", "PriorityTracker", "RetransmitTracker",
    "FlowControlDecision", "new_message_budget", "updated_fcc",
    "AcceleratedWindowTuner", "TunerConfig",
    "PackedPayload", "PackedItem", "pack_next", "ITEM_HEADER_BYTES",
    "JumboDatagram", "coalesce", "DEFAULT_JUMBO_BYTES", "JUMBO_ENTRY_BYTES",
    "ProtocolError", "ConfigurationError", "RingError", "TokenError",
    "DeliveryInvariantError",
]
