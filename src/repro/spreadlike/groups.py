"""Replicated group-membership table.

Every daemon applies the ordered stream of GroupJoin/GroupLeave/
ClientDisconnect events to its own copy of this table, so the tables are
identical replicas by construction (state-machine replication over the
total order — the core use case the paper's introduction motivates).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .protocol import ClientId


class GroupTable:
    """group name -> ordered member list (join order, Spread-style)."""

    def __init__(self) -> None:
        self._groups: Dict[str, List[ClientId]] = {}
        #: Bumped by every join or leave that changed the table
        #: (``disconnect`` leaves through :meth:`leave`): anything derived
        #: from the membership is current while this has not moved.
        self.version = 0

    def members(self, group: str) -> Tuple[ClientId, ...]:
        return tuple(self._groups.get(group, ()))

    def groups(self) -> Tuple[str, ...]:
        return tuple(sorted(self._groups))

    def groups_of(self, client: ClientId) -> Tuple[str, ...]:
        return tuple(
            sorted(g for g, members in self._groups.items() if client in members)
        )

    def is_member(self, group: str, client: ClientId) -> bool:
        return client in self._groups.get(group, ())

    def join(self, group: str, client: ClientId) -> bool:
        """Apply a join; returns False if already a member (idempotent)."""
        members = self._groups.setdefault(group, [])
        if client in members:
            return False
        members.append(client)
        self.version += 1
        return True

    def leave(self, group: str, client: ClientId) -> bool:
        """Apply a leave; returns False if not a member."""
        members = self._groups.get(group)
        if members is None or client not in members:
            return False
        members.remove(client)
        if not members:
            del self._groups[group]
        self.version += 1
        return True

    def disconnect(self, client: ClientId) -> Tuple[str, ...]:
        """Remove the client everywhere; returns the groups it left."""
        left = []
        for group in list(self._groups):
            if self.leave(group, client):
                left.append(group)
        return tuple(sorted(left))

    def snapshot(self) -> Dict[str, Tuple[ClientId, ...]]:
        return {g: tuple(m) for g, m in self._groups.items()}
