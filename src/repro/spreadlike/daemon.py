"""The Spread-like daemon: sessions, group routing, ordered fan-out.

A daemon sits between local clients and the ring.  Client operations
(join, leave, multicast, disconnect) are injected into the totally
ordered stream; on delivery, every daemon applies them to its replicated
group table and fans messages out to the local clients that are members
of the target groups *at that point of the total order* — which is what
makes group views and message sets mutually consistent everywhere.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List

from ..core import DataMessage, Service
from .groups import GroupTable
from .protocol import (
    ClientDisconnect,
    ClientId,
    GroupCast,
    GroupJoin,
    GroupLeave,
    GroupMessage,
    MembershipNotice,
    PrivateCast,
    PrivateMessage,
    SpreadError,
    validate_group_name,
)

#: A daemon submits ring payloads through this callback
#: (payload, service) -> None; the harness wires it to the participant.
RingSubmit = Callable[[Any, Service], None]


class ClientSession:
    """Server-side state of one connected client."""

    def __init__(self, client_id: ClientId) -> None:
        self.client_id = client_id
        self.inbox: Deque[Any] = deque()
        self.connected = True

    def enqueue(self, event: Any) -> None:
        if self.connected:
            self.inbox.append(event)

    def drain(self) -> List[Any]:
        events = list(self.inbox)
        self.inbox.clear()
        return events


class SpreadDaemon:
    """One daemon: local sessions + a replica of the group table."""

    def __init__(self, pid: int, submit: RingSubmit) -> None:
        self.pid = pid
        self._submit = submit
        self.groups = GroupTable()
        self.sessions: Dict[str, ClientSession] = {}
        self.messages_routed = 0
        self.notices_sent = 0

    # -- session management ----------------------------------------------

    def connect(self, name: str) -> ClientSession:
        if name in self.sessions and self.sessions[name].connected:
            raise SpreadError(
                "client name %r already connected to daemon %d" % (name, self.pid)
            )
        session = ClientSession(ClientId(self.pid, name))
        self.sessions[name] = session
        return session

    def disconnect(self, name: str) -> None:
        session = self._session(name)
        session.connected = False
        self._submit(ClientDisconnect(session.client_id), Service.AGREED)

    def _session(self, name: str) -> ClientSession:
        session = self.sessions.get(name)
        if session is None:
            raise SpreadError("no client %r at daemon %d" % (name, self.pid))
        return session

    # -- client operations (injected into the ordered stream) ---------------

    def join(self, name: str, group: str) -> None:
        validate_group_name(group)
        session = self._session(name)
        self._submit(GroupJoin(group, session.client_id), Service.AGREED)

    def leave(self, name: str, group: str) -> None:
        validate_group_name(group)
        session = self._session(name)
        self._submit(GroupLeave(group, session.client_id), Service.AGREED)

    def multicast(
        self,
        name: str,
        groups,
        payload: Any,
        service: Service = Service.AGREED,
    ) -> None:
        """Multi-group multicast: open-group semantics, one ordered send."""
        if isinstance(groups, str):
            groups = (groups,)
        groups = tuple(groups)
        if not groups:
            raise SpreadError("multicast needs at least one target group")
        for group in groups:
            validate_group_name(group)
        session = self._session(name)
        self._submit(GroupCast(groups, session.client_id, payload), service)

    def send_private(
        self,
        name: str,
        dst: ClientId,
        payload: Any,
        service: Service = Service.AGREED,
    ) -> None:
        """Point-to-point message, ordered with all other traffic."""
        session = self._session(name)
        self._submit(PrivateCast(dst, session.client_id, payload), service)

    # -- ordered delivery from the ring ---------------------------------------

    def on_ordered(self, message: DataMessage) -> None:
        """Apply one totally ordered event; called by the ring driver."""
        payload = message.payload
        if isinstance(payload, GroupCast):
            self._route_cast(payload, message)
        elif isinstance(payload, PrivateCast):
            self._route_private(payload, message)
        elif isinstance(payload, GroupJoin):
            if self.groups.join(payload.group, payload.client):
                self._notify_membership(
                    payload.group, joined=(payload.client,), seq=message.seq
                )
        elif isinstance(payload, GroupLeave):
            if self.groups.leave(payload.group, payload.client):
                self._notify_membership(
                    payload.group, left=(payload.client,), seq=message.seq
                )
        elif isinstance(payload, ClientDisconnect):
            for group in self.groups.disconnect(payload.client):
                self._notify_membership(
                    group, left=(payload.client,), seq=message.seq
                )
        else:
            raise SpreadError("unknown ring payload %r" % (payload,))

    def _route_cast(self, cast: GroupCast, message: DataMessage) -> None:
        """Deliver to local members of the target groups, once per client."""
        target_names = []
        seen = set()
        for group in cast.groups:
            for client in self.groups.members(group):
                if client.daemon != self.pid or client in seen:
                    continue
                seen.add(client)
                target_names.append(client.name)
        event = GroupMessage(
            groups=cast.groups,
            sender=cast.sender,
            payload=cast.payload,
            service=message.service,
            seq=message.seq,
        )
        for name in target_names:
            session = self.sessions.get(name)
            if session is not None:
                session.enqueue(event)
                self.messages_routed += 1

    def _route_private(self, cast: PrivateCast, message: DataMessage) -> None:
        if cast.dst.daemon != self.pid:
            return
        session = self.sessions.get(cast.dst.name)
        if session is not None:
            session.enqueue(
                PrivateMessage(
                    sender=cast.sender,
                    payload=cast.payload,
                    service=message.service,
                    seq=message.seq,
                )
            )
            self.messages_routed += 1

    def _notify_membership(self, group: str, joined=(), left=(), seq: int = 0) -> None:
        members = self.groups.members(group)
        notice = MembershipNotice(
            group=group, members=members, joined=tuple(joined),
            left=tuple(left), seq=seq,
        )
        # Current members plus the leavers, each once, in a stable order.
        for client in dict.fromkeys((*members, *left)):
            if client.daemon != self.pid:
                continue
            session = self.sessions.get(client.name)
            if session is not None:
                session.enqueue(notice)
                self.notices_sent += 1
