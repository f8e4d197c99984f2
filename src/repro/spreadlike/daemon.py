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
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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

    def enqueue(self, event: Any) -> bool:
        """Queue an event for the client; False (dropped) once it has
        disconnected, even before the disconnect is ordered."""
        if self.connected:
            self.inbox.append(event)
            return True
        return False

    def drain(self, kind: Optional[type] = None) -> List[Any]:
        """Take the queued events, or only those of ``kind``: the others
        then stay queued, in order, for a later drain."""
        events = list(self.inbox)
        self.inbox.clear()
        if kind is None:
            return events
        self.inbox.extend(e for e in events if not isinstance(e, kind))
        return [e for e in events if isinstance(e, kind)]


class SpreadDaemon:
    """One daemon: local sessions + a replica of the group table.

    Casts route from a fan-out table (target groups -> local member
    names) derived from the group table and dropped whenever its
    ``version`` moves: membership changes are rare next to casts.
    """

    def __init__(self, pid: int, submit: RingSubmit) -> None:
        self.pid = pid
        self._submit = submit
        self.groups = GroupTable()
        #: name -> session, from ``connect`` until the session's
        #: ClientDisconnect is ordered here: the name is in use till then.
        self.sessions: Dict[str, ClientSession] = {}
        self._fanout: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._fanout_version = self.groups.version
        #: Events accepted into a client inbox (a disconnected session's
        #: drops are not counted).
        self.messages_routed = 0
        self.notices_sent = 0

    # -- session management ----------------------------------------------

    def connect(self, name: str) -> ClientSession:
        if name in self.sessions:
            # Routing goes by name, so reusing it before the old session's
            # disconnect is ordered would hand the newcomer its traffic
            # (Spread likewise rejects a private name that is not unique).
            raise SpreadError(
                "client name %r in use at daemon %d" % (name, self.pid)
            )
        session = ClientSession(ClientId(self.pid, name))
        self.sessions[name] = session
        return session

    def disconnect(self, name: str) -> None:
        session = self._session(name)
        if not session.connected:
            return  # its ClientDisconnect is already in the ordered stream
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
            client = payload.client
            for group in self.groups.disconnect(client):
                self._notify_membership(group, left=(client,), seq=message.seq)
            if client.daemon == self.pid:
                self.sessions.pop(client.name, None)  # the name is free again
        else:
            raise SpreadError("unknown ring payload %r" % (payload,))

    def _route_cast(self, cast: GroupCast, message: DataMessage) -> None:
        """Deliver to local members of the target groups, once per client."""
        groups = cast.groups
        version = self.groups.version
        if self._fanout_version != version:
            self._fanout = {}
            self._fanout_version = version
        names = self._fanout.get(groups)
        if names is None:
            names = self._fanout[groups] = self._local_targets(groups)
        event = GroupMessage(
            groups, cast.sender, cast.payload, message.service, message.seq
        )
        sessions = self.sessions
        routed = 0
        for name in names:
            session = sessions.get(name)
            if session is not None and session.enqueue(event):
                routed += 1
        self.messages_routed += routed

    def _local_targets(self, groups: Tuple[str, ...]) -> Tuple[str, ...]:
        """The local members of ``groups`` by name, each once, in join
        order group by group: a fan-out table entry."""
        target_names = []
        seen = set()
        for group in groups:
            for client in self.groups.members(group):
                if client.daemon != self.pid or client in seen:
                    continue
                seen.add(client)
                target_names.append(client.name)
        return tuple(target_names)

    def _route_private(self, cast: PrivateCast, message: DataMessage) -> None:
        if cast.dst.daemon != self.pid:
            return
        session = self.sessions.get(cast.dst.name)
        if session is not None and session.enqueue(
            PrivateMessage(
                sender=cast.sender,
                payload=cast.payload,
                service=message.service,
                seq=message.seq,
            )
        ):
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
            if session is not None and session.enqueue(notice):
                self.notices_sent += 1
