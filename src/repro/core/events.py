"""Lightweight instrumentation hooks for the protocol core.

Tests and benchmarks subscribe to named protocol events without the core
knowing anything about them.  Hooks are synchronous and exception-
transparent: a broken subscriber fails the run loudly rather than
corrupting measurements silently.

Payloads are positional: each event name below documents the argument
list its subscribers receive.  (Keyword dispatch was measured at ~3x
the cost per event — a dict build plus ``fn(**payload)`` unpack — which
the lifecycle tracer's per-message stages cannot afford.)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, DefaultDict, List

Subscriber = Callable[..., None]

#: Event names emitted by Participant, with their positional payloads.
TOKEN_HANDLED = "token_handled"          # (pid, received, sent, new_messages, retransmissions)
DATA_RECEIVED = "data_received"          # (pid, message, new)
MESSAGE_SENT = "message_sent"            # (pid, message)
MESSAGE_DELIVERED = "message_delivered"  # (pid, message)
RETRANSMISSION_SENT = "retransmission_sent"            # (pid, message)
RETRANSMISSION_REQUESTED = "retransmission_requested"  # (pid, seqs)
MESSAGES_DISCARDED = "messages_discarded"              # (pid, upto)
DUPLICATE_TOKEN = "duplicate_token"      # (pid, token)


class EventHub:
    """A tiny synchronous pub/sub used for protocol observability."""

    __slots__ = ("_subscribers", "active")

    def __init__(self) -> None:
        self._subscribers: DefaultDict[str, List[Subscriber]] = defaultdict(list)
        #: True once anything has subscribed.  Hot emitters (one emit per
        #: data message) check this and skip the call altogether in the
        #: common nobody-is-listening case (benchmarks, sweeps); the
        #: totals live in :class:`~repro.core.participant.ParticipantStats`.
        self.active = False

    def subscribe(self, event: str, fn: Subscriber) -> None:
        self._subscribers[event].append(fn)
        self.active = True

    def emit(self, event: str, *args: Any) -> None:
        subscribers = self._subscribers.get(event)
        if subscribers:
            for fn in subscribers:
                fn(*args)
