"""Action algebra: what a participant asks its driver to do.

The protocol core is sans-IO: handling a message returns an *ordered* list
of actions, and the driver (simulator, real-socket emulation, or an
in-process harness) executes them in order, attributing time/cost as it
sees fit.  Actions are value objects: field-based equality and hashing
(``unsafe_hash``; :class:`Deliver` excepted, it carries a list) with a
plain-store ``__init__`` — frozen dataclasses pay ~3x the construction
cost via ``object.__setattr__``, and actions are built on the
per-message hot path.  Nothing may mutate an action after construction.
The ordering is semantically load-bearing — in particular the position
of :class:`SendToken` between the pre-token and post-token
:class:`SendData` actions is the entire point of the Accelerated Ring
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from .messages import DataMessage, Token


@dataclass(slots=True, unsafe_hash=True)
class SendData:
    """Multicast a data message to the ring."""

    message: DataMessage
    #: True when answering a retransmission request (always pre-token).
    retransmission: bool = False


@dataclass(slots=True, unsafe_hash=True)
class SendToken:
    """Unicast the updated token to the ring successor."""

    token: Token
    dst: int


@dataclass(slots=True)
class Deliver:
    """Hand the run a token handling released to the application, in
    total order: the delivery engine's list itself, not a copy (so a
    Deliver compares by value but is not hashable)."""

    messages: List[DataMessage]


@dataclass(slots=True, unsafe_hash=True)
class Discard:
    """All messages with seq <= ``upto`` are stable and were released."""

    upto: int


Action = Union[SendData, SendToken, Deliver, Discard]


def deliveries(actions: List[Action]) -> List[DataMessage]:
    """The messages delivered by an action list, in order."""
    return [m for a in actions if isinstance(a, Deliver) for m in a.messages]


def sends(actions: List[Action]) -> List[DataMessage]:
    """The data messages multicast by an action list, in order."""
    return [a.message for a in actions if isinstance(a, SendData)]


def token_of(actions: List[Action]) -> Token:
    """The (single) token sent by a token handling; raises if absent."""
    tokens = [a.token for a in actions if isinstance(a, SendToken)]
    if len(tokens) != 1:
        raise ValueError("expected exactly one SendToken, found %d" % len(tokens))
    return tokens[0]
