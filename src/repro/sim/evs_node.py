"""Membership + ordering on the simulated network.

Runs the full :class:`~repro.membership.EVSProcess` stack (Totem-style
membership with EVS delivery) over the discrete-event substrate, with
real simulated time driving the failure-detection and membership
timeouts.  This is how reconfiguration *latency* — how long a crash or
partition disrupts the ordering service — becomes measurable.

Control messages (joins, commit tokens, recovery floods) and gossip
travel on the data port, like Totem's; the regular token keeps its own
port.  A ring frame carries ``(ring_id, message)``, a control or gossip
frame the bare message; the frame's traffic kind says which.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core import ProtocolConfig, Service
from ..core.driver import Inbox
from ..membership import (
    EVSProcess,
    GossipDetector,
    MembershipTimeouts,
    Outgoing,
    PeerAlive,
    PeerConfirm,
    State,
)
from ..membership.messages import GossipPingReq
from ..net import (
    Frame,
    LinkSpec,
    Nic,
    Simulator,
    Switch,
    Timeout,
    Traffic,
    register_switch_metrics,
)
from ..obs.registry import MetricsRegistry
from ..wire import GOSSIP_BASE_SIZE, GOSSIP_REQ_BASE_SIZE, GOSSIP_UPDATE_SIZE
from .profiles import CostProfile

#: Approximate serialized size of a membership control message.
_CTRL_SIZE = 256
#: Simulated time between convergence checks in ``run_until_converged``.
_CONVERGE_STEP_S = 0.01


class SimEVSNode:
    """One EVSProcess bound to the simulated network.

    Given a peer list, failure detection rides a SWIM gossip detector:
    the Totem controller's own all-to-all probe broadcasts are disabled
    (``probes_enabled = False``) and a :class:`GossipDetector` pings
    one random peer per protocol period, feeding suspicion verdicts
    into the membership state machine via ``notify_peer_alive`` /
    ``notify_peer_failed``.  Gather/commit still forms the actual views
    — gossip only decides *when* to start one and about *whom*.

    Gossip frames are charged their real wire size (the codec's
    measured base + per-update sizes), so the control-traffic counters
    reflect what a deployment would put on the network.
    """

    #: How much simulated time one logical membership tick represents.
    TICK_INTERVAL_S = 0.001
    #: Payload bytes charged per submitted application message.
    PAYLOAD_SIZE = 1350

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        spec: LinkSpec,
        profile: CostProfile,
        switch: Switch,
        config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        peers: Optional[Tuple[int, ...]] = None,
        gossip_seed: int = 0,
    ) -> None:
        self.sim = sim
        self.pid = pid
        self.spec = spec
        self.profile = profile
        self._config = config
        self._timeouts = timeouts
        #: Static host list the detector boots from (a restarted daemon
        #: re-reads its config file; it does NOT remember incarnations);
        #: ``None`` keeps the controller's own probe flooding.
        self._peers = peers
        self._gossip_seed = gossip_seed
        self.nic = Nic(sim, pid, spec, switch.receive)
        switch.attach(pid, self._on_frame)
        #: Control and gossip frames: (traffic kind, message, src).
        self._ctrl_queue: Deque[Tuple[str, Any, int]] = deque()
        #: The two ring sockets; entries are (ring_id, payload, src).
        self._ring = Inbox()
        self._wakeup = sim.signal("evsnode%d" % pid)
        self.crashed = False
        #: Control-plane traffic accounting (membership + failure
        #: detection, excluding ordered data and the rotating token) —
        #: the quantity the gossip detector is meant to keep bounded.
        self.ctrl_frames_sent = 0
        self.ctrl_bytes_sent = 0
        self.ctrl_frames_received = 0
        #: How many times this node has been (re)started.
        self.incarnation = 0
        #: EVSProcess instances of previous incarnations (their app_log
        #: still matters for EVS checking: a crashed process's delivered
        #: prefix must be consistent with the survivors').
        self.archived_processes: List[EVSProcess] = []
        self._boot(EVSProcess(pid, config, timeouts), "%d" % pid)

    def _boot(self, process: EVSProcess, tag: str) -> None:
        """Start one incarnation: its process, sim loops and detector."""
        self.process = process
        spawn = self.sim.spawn
        self._loops = [
            spawn(self._cpu_loop(), "evscpu" + tag),
            spawn(self._tick_loop(), "evstick" + tag),
        ]
        self._route(process.bootstrap())
        self.detector: Optional[GossipDetector] = None
        if self._peers is not None:
            process.probes_enabled = False
            self.detector = GossipDetector(
                self.pid,
                # New incarnation -> new probe/jitter stream, still
                # deterministic for a given (cluster seed, pid, restart#).
                seed=self._gossip_seed * 1000003 + self.incarnation,
            )
            self.detector.seed_members(self._peers)
            self._loops.append(spawn(self._gossip_loop(), "gossiptick" + tag))

    # -- control -----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: the node stops processing and sending.

        Pending socket queues are dropped (a crashed process loses its
        volatile state); frames already handed to the NIC were sent
        before the crash and still drain onto the wire.
        """
        if self.crashed:
            return
        self.crashed = True
        for loop in self._loops:
            loop.interrupt()
        self._ctrl_queue.clear()
        self._ring.clear()

    def restart(self) -> None:
        """Boot a fresh incarnation after a crash.

        The new process has amnesia for everything volatile (no
        old-ring state, empty buffers — exactly what a restarted daemon
        has) and floods a join as a singleton; membership merges it
        back in.  Only the stable-storage ring epoch survives, so the
        incarnation can never reuse a ring id (see EVSProcess).
        """
        if not self.crashed:
            raise RuntimeError("node %d is not crashed" % self.pid)
        self.crashed = False
        self.incarnation += 1
        self.archived_processes.append(self.process)
        self._boot(
            EVSProcess(
                self.pid, self._config, self._timeouts,
                stable_ring_seq=self.process.stable_ring_seq,
            ),
            "%d.%d" % (self.pid, self.incarnation),
        )

    def submit(self, payload: Any, service: Service = Service.AGREED) -> None:
        self.process.submit(payload, service, self.PAYLOAD_SIZE)

    def delivered_payloads(self) -> List[Any]:
        return [m.payload for m in self.process.delivered_messages()]

    def incarnation_logs(self) -> List[Tuple[int, List[Any]]]:
        """Every incarnation's app_log, oldest first, with its index."""
        logs = [
            (index, process.app_log)
            for index, process in enumerate(self.archived_processes)
        ]
        logs.append((self.incarnation, self.process.app_log))
        return logs

    @property
    def state(self) -> State:
        return self.process.state

    # -- network glue -----------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if self.crashed:
            return
        traffic = frame.traffic
        if traffic is Traffic.TOKEN:
            ring_id, token = frame.payload
            self._ring.tokens.append((ring_id, token, frame.src))
        elif traffic is Traffic.DATA:
            ring_id, message = frame.payload
            self._ring.data.append((ring_id, message, frame.src))
        else:  # CTRL or GOSSIP
            self.ctrl_frames_received += 1
            self._ctrl_queue.append((traffic, frame.payload, frame.src))
        self._wakeup.fire()

    def _send_ctrl(self, dst: Optional[int], traffic: str, size: int,
                   message: Any) -> None:
        frame = Frame(self.pid, dst, traffic, size, message)
        self.ctrl_frames_sent += 1
        self.ctrl_bytes_sent += frame.size
        self.nic.send(frame)

    def _route(self, outgoing: List[Outgoing]) -> None:
        for out in outgoing:
            if out.kind == "token":
                ring_id, token = out.payload
                if out.dst == self.pid:
                    self._ring.tokens.append((ring_id, token, self.pid))
                    self._wakeup.fire()
                    continue
                self.nic.send(
                    Frame(self.pid, out.dst, Traffic.TOKEN,
                          token.size, out.payload)
                )
            elif out.kind == "data":
                message = out.payload[1]
                self.nic.send(
                    Frame(self.pid, None, Traffic.DATA,
                          message.payload_size + self.profile.header_bytes,
                          out.payload)
                )
            elif out.dst == self.pid:
                self._ctrl_queue.append((Traffic.CTRL, out.payload, self.pid))
                self._wakeup.fire()
            else:
                self._send_ctrl(out.dst, Traffic.CTRL, _CTRL_SIZE,
                                out.payload)

    def _dispatch_gossip(self, sends, events) -> None:
        for dst, message in sends:
            if dst == self.pid:
                continue
            base = (
                GOSSIP_REQ_BASE_SIZE
                if isinstance(message, GossipPingReq)
                else GOSSIP_BASE_SIZE
            )
            self._send_ctrl(
                dst, Traffic.GOSSIP,
                base + len(message.updates) * GOSSIP_UPDATE_SIZE, message,
            )
        for event in events:
            if isinstance(event, PeerConfirm):
                self._route(self.process.notify_peer_failed(event.pid))
            elif isinstance(event, PeerAlive):
                self._route(self.process.notify_peer_alive(event.pid))
            # PeerSuspect is advisory: membership waits for the
            # confirm so one dropped ack can't force a view change.

    # -- processes ------------------------------------------------------------------

    def _cpu_loop(self):
        profile = self.profile
        ring = self._ring
        while True:
            if self._ctrl_queue:
                traffic, message, src = self._ctrl_queue.popleft()
                yield Timeout(profile.recv_token_cpu_s)
                if traffic is Traffic.GOSSIP:
                    # Only a gossiping peer sends these, and the cluster
                    # is all-gossip or all-probe, so a detector exists.
                    self._dispatch_gossip(*self.detector.handle(message, src))
                else:
                    self._route(self.process.handle_ctrl(message, src))
                continue
            queue = ring.pick(self.process.token_has_priority)
            if queue is None:
                yield self._wakeup
                continue
            ring_id, payload, src = queue.popleft()
            if queue is ring.tokens:
                yield Timeout(profile.recv_token_cpu_s)
                self._route(self.process.handle_token(ring_id, payload, src))
            else:
                yield Timeout(profile.data_recv_cost(payload.payload_size))
                self._route(self.process.handle_data(ring_id, payload, src))

    def _tick_loop(self):
        while True:
            yield Timeout(self.TICK_INTERVAL_S)
            self._route(self.process.tick())

    def _gossip_loop(self):
        while True:
            yield Timeout(self.TICK_INTERVAL_S)
            self._dispatch_gossip(*self.detector.tick())


class SimEVSCluster:
    """N membership-running nodes on one simulated switch."""

    def __init__(
        self,
        n_nodes: int,
        spec: LinkSpec,
        profile: CostProfile,
        config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        gossip: bool = False,
        gossip_seed: int = 0,
    ) -> None:
        self.sim = Simulator()
        self.switch = Switch(self.sim, spec)
        self.gossip = gossip
        # Mid-run spawns (open-membership joins) build new nodes from
        # the same deployment parameters: ``_new_node(pid, peers=...)``.
        self._new_node = functools.partial(
            SimEVSNode, self.sim, spec=spec, profile=profile,
            switch=self.switch, config=config, timeouts=timeouts,
            gossip_seed=gossip_seed,
        )
        peers = tuple(range(n_nodes)) if gossip else None
        self.nodes: Dict[int, SimEVSNode] = {
            pid: self._new_node(pid, peers=peers) for pid in range(n_nodes)
        }
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def spawn(self, pid: int) -> SimEVSNode:
        """Open membership: boot a brand-new pid mid-run.

        Unlike :meth:`restart` (a known host coming back), the joiner
        has never existed: no port on the switch, no entry in anyone's
        detector, no archived incarnations.  It boots as a singleton
        seeded with the *current* deployment as its peer list (a fresh
        daemon reads the live host file); its gossip pings introduce it
        to the members' detectors, whose ``PeerAlive`` verdicts pull it
        into the next gather — no static pid universe anywhere.

        Gossip-mode only: the probe path broadcasts to the fixed ring
        membership and would never probe an unknown pid, which is
        exactly the closed-membership limitation this lifts.
        """
        if not self.gossip:
            raise RuntimeError(
                "open-membership joins need the gossip detection path "
                "(probe-flood detection never probes unknown pids)"
            )
        if pid in self.nodes:
            raise ValueError("pid %d already exists" % pid)
        node = self.nodes[pid] = self._new_node(
            pid, peers=tuple(sorted(self.nodes)))
        self._register_node_metrics(pid, node)
        return node

    def _register_metrics(self) -> None:
        metrics = self.metrics
        for pid, node in self.nodes.items():
            self._register_node_metrics(pid, node)
        register_switch_metrics(metrics, self.switch)
        metrics.bind_fn("net.switch.drops_port", self.switch.total_drops)

    def _register_node_metrics(self, pid: int, node: SimEVSNode) -> None:
        """Expose one node's membership/gossip counters in the registry.

        Called per node so mid-run :meth:`spawn` joins register too.
        Detector metrics go through ``bind_fn`` closures reading
        ``node.detector`` fresh at snapshot time — a restart swaps in a
        new detector, and the registry must follow the live incarnation.
        """
        metrics = self.metrics
        metrics.bind("membership.ctrl_frames_sent", node,
                     "ctrl_frames_sent", node=pid)
        metrics.bind("membership.ctrl_bytes_sent", node,
                     "ctrl_bytes_sent", node=pid)
        metrics.bind("membership.ctrl_frames_received", node,
                     "ctrl_frames_received", node=pid)
        metrics.bind("membership.incarnation", node, "incarnation", node=pid)
        metrics.bind("net.nic.frames_sent", node.nic, "frames_sent",
                     node=pid)
        metrics.bind("net.nic.bytes_sent", node.nic, "bytes_sent",
                     node=pid)
        if self.gossip:
            metrics.bind_fn(
                "membership.gossip.messages_sent",
                (lambda n=node: n.detector.messages_sent), node=pid,
            )
            metrics.bind_fn(
                "membership.gossip.false_suspicions_refuted",
                (lambda n=node: n.detector.false_suspicions_refuted),
                node=pid,
            )

    def run_for(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def live_nodes(self) -> List[SimEVSNode]:
        return [n for n in self.nodes.values() if not n.crashed]

    # -- fault controls -----------------------------------------------------

    def crash(self, pid: int) -> None:
        self.nodes[pid].crash()

    def restart(self, pid: int) -> None:
        self.nodes[pid].restart()

    def set_partition(self, *groups) -> None:
        """Partition the switch into port groups (see Switch.set_partition)."""
        self.switch.set_partition(*groups)

    def heal(self) -> None:
        self.switch.heal()

    def logs(self) -> Dict[Tuple[int, int], List[Any]]:
        """Every (pid, incarnation) app_log — checker input."""
        collected: Dict[Tuple[int, int], List[Any]] = {}
        for pid, node in self.nodes.items():
            for incarnation, log in node.incarnation_logs():
                collected[(pid, incarnation)] = log
        return collected

    def ctrl_traffic(self) -> Dict[str, float]:
        """Aggregate control-plane load (frames/bytes, plus per-node
        send rate in frames per simulated second).

        A thin shim over the metrics registry: the per-node counters are
        registered there, and this sums the same live attributes.
        """
        frames_sent = self.metrics.total("membership.ctrl_frames_sent")
        bytes_sent = self.metrics.total("membership.ctrl_bytes_sent")
        frames_received = self.metrics.total("membership.ctrl_frames_received")
        elapsed = self.sim.now
        per_node_hz = (
            frames_sent / (elapsed * len(self.nodes)) if elapsed > 0 else 0.0
        )
        return {
            "ctrl_frames_sent": frames_sent,
            "ctrl_bytes_sent": bytes_sent,
            "ctrl_frames_received": frames_received,
            "ctrl_frames_per_node_per_s": per_node_hz,
        }

    # -- convergence --------------------------------------------------------

    def converged(self) -> bool:
        live = self.live_nodes()
        if not live:
            return True
        if self.switch.partitioned:
            # Per-component convergence: every connected component of
            # live nodes must share one operational ring of exactly its
            # members.
            groups: Dict[object, List[SimEVSNode]] = {}
            for node in live:
                for key, members in groups.items():
                    if self.switch.connected(members[0].pid, node.pid):
                        members.append(node)
                        break
                else:
                    groups[node.pid] = [node]
            components = list(groups.values())
        else:
            components = [live]
        for component in components:
            expected = tuple(sorted(n.pid for n in component))
            if not all(
                n.state is State.OPERATIONAL
                and tuple(n.process.ring.members) == expected
                for n in component
            ):
                return False
            if len({n.process.ring.ring_id for n in component}) != 1:
                return False
        return True

    def run_until_converged(self, timeout_s: float = 5.0) -> float:
        """Run until all live nodes share one operational ring.

        Returns the simulated time at convergence.
        """
        deadline = self.sim.now + timeout_s
        while self.sim.now < deadline:
            self.run_for(_CONVERGE_STEP_S)
            if self.converged():
                return self.sim.now
        states = {
            n.pid: (n.state, n.process.ring.members) for n in self.live_nodes()
        }
        raise RuntimeError("no convergence by t=%.3f: %r" % (self.sim.now, states))
