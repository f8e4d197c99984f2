"""Spread daemons over the membership stack: surviving daemon failures.

The static :class:`~repro.spreadlike.cluster.SpreadCluster` runs on a
fixed ring; this variant runs each daemon on an
:class:`~repro.membership.EVSProcess` (via the EVS network harness), so
daemon crashes, partitions and merges flow through Totem membership and
EVS delivery — and the group layer reacts the way Spread does: when a
daemon leaves the configuration, every group sheds that daemon's
clients at the same point of the total order on every surviving daemon,
with membership notices delivered to the remaining members.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import ProtocolConfig, Service
from ..evs import AppMessage, ConfigChange
from ..harness.evsnet import EVSNetwork
from ..membership import MembershipTimeouts
from .client import SpreadClient
from .daemon import SpreadDaemon
from .protocol import ClientId


class DynamicSpreadDaemon(SpreadDaemon):
    """A daemon that also reacts to configuration changes."""

    def __init__(self, pid: int, submit) -> None:
        super().__init__(pid, submit)
        self._current_members: Optional[tuple] = None

    def on_config_change(self, change: ConfigChange) -> None:
        """Apply an EVS configuration event from the ordered stream."""
        config = change.configuration
        if not config.is_regular:
            return  # transitional configs need no group action here
        previous = self._current_members
        self._current_members = config.members
        if previous is None:
            return
        departed_daemons = set(previous) - set(config.members)
        if not departed_daemons:
            return
        # Every surviving daemon sees the same config change at the same
        # point in the order, so these removals are replica-consistent.
        for client in self._clients_of(departed_daemons):
            for group in self.groups.disconnect(client):
                self._notify_membership(group, left=(client,))

    def _clients_of(self, daemons) -> List[ClientId]:
        found = []
        for group, members in self.groups.snapshot().items():
            for client in members:
                if client.daemon in daemons and client not in found:
                    found.append(client)
        return found


class DynamicSpreadCluster:
    """Spread daemons on a partitionable membership-running network."""

    def __init__(
        self,
        n_daemons: int = 4,
        config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
    ) -> None:
        pids = list(range(n_daemons))
        self.net = EVSNetwork(pids, config, timeouts)
        self.daemons: Dict[int, DynamicSpreadDaemon] = {}
        for pid in pids:
            self.daemons[pid] = DynamicSpreadDaemon(pid, self._make_submit(pid))
            self._attach_log_pump(pid)
        self.net.run_until_converged()

    def _make_submit(self, pid: int):
        def submit(payload, service: Service) -> None:
            self.net.submit(pid, payload, service)

        return submit

    def _attach_log_pump(self, pid: int) -> None:
        # Each daemon consumes its process's app log incrementally.
        self._log_positions = getattr(self, "_log_positions", {})
        self._log_positions[pid] = 0

    def _pump_logs(self) -> None:
        for pid, daemon in self.daemons.items():
            if pid in self.net.crashed:
                continue
            log = self.net.processes[pid].app_log
            position = self._log_positions[pid]
            for event in log[position:]:
                if isinstance(event, AppMessage):
                    # Re-wrap into the shape the daemon expects.
                    from ..core.messages import DataMessage

                    daemon.on_ordered(
                        DataMessage(
                            seq=event.seq,
                            pid=event.sender,
                            round=0,
                            service=Service.SAFE if event.safe else Service.AGREED,
                            payload=event.payload,
                        )
                    )
                elif isinstance(event, ConfigChange):
                    daemon.on_config_change(event)
            self._log_positions[pid] = len(log)

    # -- public API ---------------------------------------------------------

    def client(self, name: str, daemon: int = 0) -> SpreadClient:
        return SpreadClient(self.daemons[daemon], name)

    def flush(self, steps: int = 400) -> None:
        """Advance the network and apply ordered events to the daemons."""
        self.net.run_quiet(steps)
        self._pump_logs()

    def crash_daemon(self, pid: int) -> None:
        """Fail a daemon; membership reforms and groups shed its clients."""
        self.net.crash(pid)
        self.net.run_until_converged()
        self._pump_logs()

    def group_view(self, daemon: int, group: str):
        return self.daemons[daemon].groups.members(group)
