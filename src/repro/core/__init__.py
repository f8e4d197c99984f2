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

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "participant": ("Participant", "ParticipantStats", "TokenRound"),
    "config": ("ProtocolConfig", "PriorityMethod", "Service"),
    "ring": ("Ring",),
    "messages": ("Token", "DataMessage", "initial_token"),
    "driver": ("RingDriver", "Inbox", "DriverPort"),
    "window": ("ReceiveWindow",),
    "autotune": ("AcceleratedWindowTuner", "TunerConfig"),
    "packing": (
        "PackedPayload", "PackedItem", "pack_next", "ITEM_HEADER_BYTES",
    ),
    "coalesce": (
        "JumboDatagram", "coalesce", "DEFAULT_JUMBO_BYTES",
        "JUMBO_ENTRY_BYTES",
    ),
    "errors": (
        "ProtocolError", "ConfigurationError", "RingError", "TokenError",
        "DeliveryInvariantError",
    ),
})
