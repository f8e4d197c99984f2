"""Client-side API: the application's view of the Spread-like service."""

from __future__ import annotations

from typing import Any, List

from ..core import Service
from .daemon import ClientSession, SpreadDaemon
from .protocol import (
    ClientId,
    GroupMessage,
    PrivateMessage,
    SpreadError,
)


class SpreadClient:
    """A connected application handle.

    Mirrors the shape of the Spread C/Java client API: connect to a
    (local) daemon, join/leave groups, multicast to one or more groups,
    and receive an ordered stream of messages and membership notices.
    """

    def __init__(self, daemon: SpreadDaemon, name: str) -> None:
        self._daemon = daemon
        self._name = name
        self._session: ClientSession = daemon.connect(name)

    @property
    def client_id(self) -> ClientId:
        return self._session.client_id

    @property
    def connected(self) -> bool:
        return self._session.connected

    def join(self, group: str) -> None:
        self._require_connected()
        self._daemon.join(self._name, group)

    def leave(self, group: str) -> None:
        self._require_connected()
        self._daemon.leave(self._name, group)

    def multicast(
        self,
        groups,
        payload: Any,
        service: Service = Service.AGREED,
    ) -> None:
        self._require_connected()
        self._daemon.multicast(self._name, groups, payload, service)

    def send_private(
        self,
        dst: ClientId,
        payload: Any,
        service: Service = Service.AGREED,
    ) -> None:
        """Send a point-to-point message, ordered with group traffic."""
        self._require_connected()
        self._daemon.send_private(self._name, dst, payload, service)

    def receive(self) -> List[Any]:
        """Drain pending events (GroupMessage / PrivateMessage /
        MembershipNotice)."""
        return self._session.drain()

    def receive_messages(self) -> List[GroupMessage]:
        """Drain pending group messages; other events stay queued."""
        return self._session.drain(GroupMessage)

    def receive_private(self) -> List[PrivateMessage]:
        """Drain pending private messages; other events stay queued."""
        return self._session.drain(PrivateMessage)

    def disconnect(self) -> None:
        if self._session.connected:
            self._daemon.disconnect(self._name)

    def _require_connected(self) -> None:
        if not self._session.connected:
            raise SpreadError("client %s is disconnected" % self.client_id)
