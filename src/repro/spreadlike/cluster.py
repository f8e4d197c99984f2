"""An in-process Spread-like deployment: N daemons on a ring + clients.

The transport is the deterministic loopback harness; the point of this
module is the daemon/group layer itself (the paper's production system
architecture), not wire-level performance — that is measured by
:mod:`repro.sim` with the ``SPREAD`` cost profile.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from ..core import DataMessage, ProtocolConfig
from ..harness import LoopbackRing
from .client import SpreadClient
from .daemon import SpreadDaemon


class SpreadCluster:
    """N daemons on one ring, with client sessions."""

    def __init__(
        self,
        n_daemons: int = 4,
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        pids = list(range(n_daemons))
        self.ring = LoopbackRing(pids, config, on_deliver=self._on_deliver)
        self.daemons: Dict[int, SpreadDaemon] = {}
        for pid in pids:
            self.daemons[pid] = SpreadDaemon(pid, partial(self.ring.submit, pid))

    def _on_deliver(self, pid: int, message: DataMessage) -> None:
        self.daemons[pid].on_ordered(message)

    def client(self, name: str, daemon: int = 0) -> SpreadClient:
        """Connect a new client to a daemon."""
        return SpreadClient(self.daemons[daemon], name)

    def flush(self, max_steps: int = 1_000_000) -> None:
        """Run the ring until all submitted operations are ordered."""
        self.ring.run(max_steps=max_steps)

    def group_view(self, daemon: int, group: str):
        return self.daemons[daemon].groups.members(group)
