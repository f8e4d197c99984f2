"""Daemon<->client session protocol and ring-level control payloads.

Spread's client-daemon architecture (Section I of the paper) separates
the middleware from applications: clients connect to a local daemon,
join named groups, and multicast to any groups (open-group semantics —
senders need not be members).  Group joins/leaves travel through the
same totally ordered stream as data, so every daemon applies membership
changes at the same point in the order and all clients see mutually
consistent group views.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Tuple

from ..core import Service

#: Spread limits group names; we keep the same spirit.
MAX_GROUP_NAME = 32


class SpreadError(Exception):
    """Session/group usage errors."""


@dataclass(frozen=True)
class ClientId:
    """A connected client: private name scoped by its daemon."""

    daemon: int
    name: str

    def __str__(self) -> str:
        return "#%s#%d" % (self.name, self.daemon)


# --- ring-level control payloads (ordered with data) -----------------------

@dataclass(frozen=True)
class GroupJoin:
    group: str
    client: ClientId


@dataclass(frozen=True)
class GroupLeave:
    group: str
    client: ClientId


@dataclass(frozen=True)
class ClientDisconnect:
    client: ClientId


@dataclass(frozen=True)
class PrivateCast:
    """A point-to-point message, still totally ordered with everything
    else (Spread routes private messages through the daemons, so they
    respect the same order as group traffic)."""

    dst: "ClientId"
    sender: "ClientId"
    payload: Any


@dataclass(slots=True, unsafe_hash=True)
class GroupCast:
    """A multi-group multicast: one message, ordered once, delivered to
    every member of every listed group exactly once.

    This and :class:`GroupMessage` are plain-store value objects (the
    idiom :class:`repro.core.DataMessage` documents): built on the
    per-message path, where a frozen ``__init__`` costs ~3x.  Nothing may
    mutate them.
    """

    groups: Tuple[str, ...]
    sender: ClientId
    payload: Any


# --- events the client receives --------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class GroupMessage:
    """An ordered data message delivered to a group member."""

    groups: Tuple[str, ...]
    sender: ClientId
    payload: Any
    service: Service
    seq: int


@dataclass(frozen=True)
class PrivateMessage:
    """An ordered point-to-point message delivered to one client."""

    sender: ClientId
    payload: Any
    service: Service
    seq: int


@dataclass(frozen=True)
class MembershipNotice:
    """Delivered to group members when the group's membership changes."""

    group: str
    members: Tuple[ClientId, ...]
    joined: Tuple[ClientId, ...] = ()
    left: Tuple[ClientId, ...] = ()
    seq: int = 0


#: ``\s`` on a ``str`` pattern matches exactly the code points for which
#: ``str.isspace`` holds (checked over all of them by the tests).
_WHITESPACE = re.compile(r"\s").search


def validate_group_name(group: str) -> None:
    if not group:
        raise SpreadError("empty group name")
    if len(group) > MAX_GROUP_NAME:
        raise SpreadError(
            "group name %r exceeds %d characters" % (group, MAX_GROUP_NAME)
        )
    if _WHITESPACE(group):
        raise SpreadError("group name %r contains whitespace" % group)
