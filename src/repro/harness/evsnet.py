"""Deterministic network driver for membership/EVS testing.

Connectivity is explicit: the network is partitioned into groups, and
messages only flow within a group.  Crashes remove a process outright.
Each global step lets every live process handle one pending message
(control messages outrank protocol messages) and then advances its
logical clock by one tick, so timeouts — token loss, gather, commit —
fire deterministically.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Set

from ..core import ProtocolConfig, Service
from ..core.driver import Inbox
from ..membership import EVSProcess, MembershipTimeouts, Outgoing, State


class EVSNetwork:
    """N membership-running processes over a partitionable network."""

    def __init__(
        self,
        pids: Sequence[int],
        config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
    ) -> None:
        self.pids = list(pids)
        self._config = config
        self._timeouts = timeouts
        self.processes: Dict[int, EVSProcess] = {
            pid: EVSProcess(pid, config, timeouts) for pid in self.pids
        }
        self._groups: List[Set[int]] = [set(self.pids)]
        self.crashed: Set[int] = set()
        #: Earlier incarnations of restarted pids, oldest first.  Their
        #: delivered prefixes still matter for EVS checking.
        self.archived: Dict[int, List[EVSProcess]] = {}
        #: Per process: control messages, and the two ring sockets.
        #: Entries are ``(src, payload)`` pairs.
        self._ctrl: Dict[int, Deque] = {p: deque() for p in self.pids}
        self._ring: Dict[int, Inbox] = {p: Inbox() for p in self.pids}
        self.steps = 0
        for pid in self.pids:
            self._route(pid, self.processes[pid].bootstrap())

    # -- topology control ---------------------------------------------------

    def set_partition(self, *groups: Iterable[int]) -> None:
        """Split the network; every live pid must appear in exactly one group."""
        sets = [set(g) for g in groups]
        listed = set().union(*sets) if sets else set()
        live = set(self.pids) - self.crashed
        missing = live - listed
        for pid in missing:
            sets.append({pid})  # unlisted processes end up isolated
        self._groups = sets
        # In-flight messages across the new boundary are lost.
        self._drop_cross_partition_traffic()

    def heal(self) -> None:
        """Merge all partitions back into one network."""
        self._groups = [set(self.pids) - self.crashed]

    def spawn(self, pid: int,
              config: Optional[ProtocolConfig] = None,
              timeouts: Optional[MembershipTimeouts] = None) -> EVSProcess:
        """Start a brand-new process mid-run (late join).

        It boots as a singleton, floods a join, and the membership
        algorithm merges it into whichever partition group it lands in.
        """
        if pid in self.processes:
            raise ValueError("pid %r already exists" % pid)
        process = EVSProcess(pid, config, timeouts)
        self.pids.append(pid)
        self.processes[pid] = process
        self._ctrl[pid] = deque()
        self._ring[pid] = Inbox()
        # The newcomer lands in the largest current group (the healed
        # network in the common case); use set_partition for control.
        target = max(self._groups, key=len) if self._groups else set()
        target.add(pid)
        self._route(pid, process.bootstrap())
        return process

    def restart(self, pid: int) -> EVSProcess:
        """Reboot a crashed process as a fresh, amnesiac incarnation.

        The old incarnation's log is archived (its delivered prefix
        still has to be consistent with the survivors'); the new
        process bootstraps as a singleton and rejoins via the normal
        membership path, landing in the largest current group.
        """
        if pid not in self.crashed:
            raise ValueError("pid %r is not crashed" % pid)
        self.crashed.discard(pid)
        old = self.processes[pid]
        self.archived.setdefault(pid, []).append(old)
        # Volatile state is gone, but the ring epoch survives on
        # "disk" (Totem's stable-storage ring sequence number) so the
        # new incarnation can never re-mint an old ring id.
        process = EVSProcess(pid, self._config, self._timeouts,
                             stable_ring_seq=old.stable_ring_seq)
        self.processes[pid] = process
        if self._groups:
            max(self._groups, key=len).add(pid)
        else:
            self._groups = [{pid}]
        self._route(pid, process.bootstrap())
        return process

    def crash(self, pid: int) -> None:
        """Process failure: no more steps, inboxes dropped."""
        self.crashed.add(pid)
        self._ctrl[pid].clear()
        self._ring[pid].clear()
        for group in self._groups:
            group.discard(pid)

    def connected(self, a: int, b: int) -> bool:
        if a in self.crashed or b in self.crashed:
            return False
        if a == b:
            return True
        return any(a in group and b in group for group in self._groups)

    def group_of(self, pid: int) -> Set[int]:
        for group in self._groups:
            if pid in group:
                return set(group)
        return {pid}

    def _drop_cross_partition_traffic(self) -> None:
        # Queued messages carry their source; drop those no longer
        # reachable.
        for pid in self.pids:
            ring = self._ring[pid]
            for queue in (self._ctrl[pid], ring.tokens, ring.data):
                kept = [(src, m) for (src, m) in queue if self.connected(src, pid)]
                queue.clear()
                queue.extend(kept)

    # -- workload ---------------------------------------------------------------

    def submit(self, pid: int, payload: Any, service: Service = Service.AGREED) -> None:
        self.processes[pid].submit(payload, service)

    # -- execution ----------------------------------------------------------------

    def step(self) -> bool:
        progressed = False
        for pid in self.pids:
            if pid in self.crashed:
                continue
            if self._step_one(pid):
                progressed = True
        for pid in self.pids:
            if pid in self.crashed:
                continue
            self._route(pid, self.processes[pid].tick())
        self.steps += 1
        return progressed

    def _step_one(self, pid: int) -> bool:
        process = self.processes[pid]
        ctrl, ring = self._ctrl[pid], self._ring[pid]
        if ctrl:
            src, message = ctrl.popleft()
            self._route(pid, process.handle_ctrl(message, src))
            return True
        queue = ring.pick(process.token_has_priority)
        if queue is None:
            return False
        src, (ring_id, payload) = queue.popleft()
        handle = (process.handle_token if queue is ring.tokens
                  else process.handle_data)
        self._route(pid, handle(ring_id, payload, src))
        return True

    def _route(self, src: int, outgoing: List[Outgoing]) -> None:
        for out in outgoing:
            if out.dst is not None:
                targets = [out.dst] if self.connected(src, out.dst) else []
            else:
                targets = [
                    pid for pid in self.group_of(src)
                    if pid != src and pid not in self.crashed
                ]
            kind, entry = out.kind, (src, out.payload)
            for dst in targets:
                if kind == "ctrl":
                    self._ctrl[dst].append(entry)
                elif kind == "token":
                    self._ring[dst].tokens.append(entry)
                else:
                    self._ring[dst].data.append(entry)

    # -- invariant checking -------------------------------------------------------

    def logs(self) -> Dict:
        """Every incarnation's app_log (crashed included — their
        delivered prefix must still be consistent with the survivors').

        Keys are bare pids until the first :meth:`restart`; after one,
        keys become ``(pid, incarnation)`` so each amnesiac reboot is
        checked as its own EVS process (the checker accepts both).
        """
        if not self.archived:
            return {
                pid: process.app_log
                for pid, process in self.processes.items()
            }
        collected: Dict = {}
        for pid, process in self.processes.items():
            earlier = self.archived.get(pid, [])
            for incarnation, old in enumerate(earlier):
                collected[(pid, incarnation)] = old.app_log
            collected[(pid, len(earlier))] = process.app_log
        return collected

    # -- convergence helpers ------------------------------------------------------

    def _group_converged(self, group: Set[int]) -> bool:
        live = sorted(group - self.crashed)
        if not live:
            return True
        for pid in live:
            process = self.processes[pid]
            if process.state is not State.OPERATIONAL:
                return False
            if tuple(process.ring.members) != tuple(live):
                return False
            if self._ctrl[pid] or self._ring[pid].data:
                return False
        ring_ids = {self.processes[pid].ring.ring_id for pid in live}
        return len(ring_ids) == 1

    def converged(self) -> bool:
        return all(self._group_converged(set(g)) for g in self._groups)

    def run_until_converged(self, max_steps: int = 20_000) -> int:
        for _i in range(max_steps):
            self.step()
            if self.converged():
                return self.steps
        states = {
            pid: (p.state, p.ring.members)
            for pid, p in self.processes.items()
            if pid not in self.crashed
        }
        raise RuntimeError(
            "membership did not converge in %d steps: %r" % (max_steps, states)
        )

    def run_quiet(self, extra_steps: int) -> None:
        """Run a fixed number of steps (e.g. to drain deliveries)."""
        for _i in range(extra_steps):
            self.step()

    def run_until_delivered(self, count: int, max_steps: int = 50_000) -> None:
        """Run until every live process has delivered ``count`` messages."""
        for _i in range(max_steps):
            self.step()
            if all(
                len(self.processes[pid].delivered_messages()) >= count
                for pid in self.pids
                if pid not in self.crashed
            ):
                return
        raise RuntimeError("not all processes delivered %d messages" % count)
