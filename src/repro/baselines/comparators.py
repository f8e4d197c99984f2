"""The Section V comparators: a fixed sequencer and Ring Paxos.

Section V of the paper measures the token approach against
sequencer-based total order (JGroups, Isis2) and U-Ring Paxos.  Both put
a fixed coordinator, node 0, in front of the order: a sender forwards
its message there (:class:`Forward`), the coordinator numbers and
multicasts it (:class:`Ordered`), and every node delivers numbered
messages in sequence once they are stable.  :class:`BaselineHost` is
all of that, on the ring's own substrate, cost profiles and injector,
so the comparison bench (`benchmarks/test_related_work.py`) is
apples-to-apples: the NIC, the socket-buffered inbox, and one CPU
paying every receive, send and delivery through the :class:`CpuPauses`
of :class:`repro.sim.SimNode`.  A protocol is the message handler that
decides when a sequence number is stable, ``handle(host, message)``: it
marks ``host.stable`` and returns the CPU pauses of what else it does
(a generator, or ``()``).  The host never asks which protocol it runs.

**Fixed sequencer** (JGroups-SEQUENCER style): every node delivers on
receipt (Agreed).  The structural trade-off this reproduces: the
sequencer pays CPU for every message in the system twice (receive from
sender + multicast), so it becomes the bottleneck at roughly half the
ring's aggregate rate, while at low load it has lower latency than the
ring (no waiting for a token rotation).

**Ring Paxos**, simplified (Marandi et al., DSN 2010): the coordinator's
multicast is a proposal, acceptance acks travel along a ring of
acceptors (a majority quorum), and the closing acceptor multicasts a
small decision; learners deliver in instance order once decided.
Delivery therefore carries quorum stability — comparable to the ring
protocols' Safe service, which is what the paper compares it against
(U-Ring Paxos reaches ~750 Mbps on 1G with 1350-byte messages, with a
latency profile similar to the original Ring protocol's Safe delivery).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set

from ..core import Service
from ..net import Frame, LinkSpec, Nic, Simulator, Switch, Timeout, Traffic
from ..sim.cluster import spawn_injectors
from ..sim.latency import LatencyRecorder, LatencySummary
from ..sim.node import CpuPauses
from ..sim.profiles import CostProfile

#: Size of Ring Paxos ack/decision control messages on the wire.
CTRL_SIZE = 64


@dataclass(frozen=True)
class Forward:
    """A client's message on its way to the coordinator."""

    sender: int
    payload_size: int
    submitted_at: float


@dataclass(frozen=True)
class Ordered:
    """A message the coordinator numbered and multicast."""

    seq: int
    sender: int
    payload_size: int
    submitted_at: float


@dataclass(frozen=True)
class Ack:
    instance: int
    hop: int
    payload_size = CTRL_SIZE  # what receiving it costs (not a field)


@dataclass(frozen=True)
class Decision:
    instance: int
    payload_size = CTRL_SIZE


class BaselineHost:
    """One single-CPU comparator host; node 0 is the coordinator."""

    def __init__(self, sim: Simulator, pid: int, n_nodes: int,
                 spec: LinkSpec, profile: CostProfile, switch: Switch,
                 recorder: LatencyRecorder, handle: Callable,
                 service: Service) -> None:
        self.sim = sim
        self.pid = pid
        self.n_nodes = n_nodes
        self.header_bytes = profile.header_bytes
        self.pauses = CpuPauses(profile)
        self.handle = handle
        self.record = functools.partial(recorder.record, pid, service)
        self.nic = Nic(sim, pid, spec, switch.receive)
        switch.attach(pid, self._on_frame)
        self.inbox: Deque[Frame] = deque()
        self._inbox_bytes = 0
        self._socket_buffer_bytes = spec.socket_buffer_bytes
        self._wakeup = sim.signal("host%d" % pid)
        #: Numbered messages not yet delivered, and the sequence numbers
        #: the protocol marked stable: the walk delivers what is both.
        self.ordered: Dict[int, Ordered] = {}
        self.stable: Set[int] = set()
        self.delivered_upto = 0
        self.next_seq = 1  # the coordinator's counter
        self.socket_drops = 0
        sim.spawn(self._loop(), "cpu%d" % pid)

    def submit(self, payload_size: int) -> None:
        """A client message, forwarded to the coordinator."""
        frame = Frame(self.pid, 0, Traffic.DATA,
                      payload_size + self.header_bytes,
                      Forward(self.pid, payload_size, self.sim.now))
        if self.pid == 0:
            # Local fast path: the coordinator orders its own messages
            # without a network hop, but still pays the CPU, and they
            # take their room in its socket buffer.
            self._on_frame(frame)
        else:
            self.nic.send(frame)

    def send(self, message: object, dst: Optional[int]) -> None:
        """A control message on the token socket (``dst`` None: all)."""
        self.nic.send(Frame(self.pid, dst, Traffic.TOKEN, CTRL_SIZE, message))

    def _on_frame(self, frame: Frame) -> None:
        if self._inbox_bytes + frame.wire > self._socket_buffer_bytes:
            self.socket_drops += 1
            return
        self.inbox.append(frame)
        self._inbox_bytes += frame.wire
        self._wakeup.fire()

    def _loop(self) -> Iterator[object]:
        inbox = self.inbox
        pauses = self.pauses
        while True:
            if not inbox:
                yield self._wakeup
                continue
            frame = inbox.popleft()
            self._inbox_bytes -= frame.wire
            message = frame.payload
            yield pauses.recv_data[message.payload_size]
            if message.__class__ is Forward:
                # The coordinator numbers the message and multicasts it.
                message = Ordered(self.next_seq, message.sender,
                                  message.payload_size, message.submitted_at)
                self.next_seq += 1
                yield pauses.send_data[message.payload_size]
                self.nic.send(Frame(self.pid, None, Traffic.DATA,
                                    message.payload_size + self.header_bytes,
                                    message))
            if message.__class__ is Ordered:
                self.ordered[message.seq] = message
            yield from self.handle(self, message)
            yield from self._deliver_in_order()

    def _deliver_in_order(self) -> Iterator[Timeout]:
        ordered = self.ordered
        stable = self.stable
        while self.delivered_upto + 1 in stable:
            seq = self.delivered_upto + 1
            message = ordered.pop(seq, None)
            if message is None:
                return
            stable.remove(seq)
            self.delivered_upto = seq
            yield self.pauses.deliver[message.payload_size]
            self.record(message.submitted_at, self.sim.now,
                        message.payload_size)


def _sequencer(host: BaselineHost, message: Ordered):
    """Every node, the sequencer included, delivers an ordered message
    on receipt (Agreed)."""
    host.stable.add(message.seq)
    return ()


def _ring_paxos(host: BaselineHost, message: object):
    """Node 0 proposes; acks walk the acceptor ring to a majority; the
    closing acceptor multicasts the decision (Safe)."""
    cls = message.__class__
    if cls is Ordered:
        if host.pid == 0:
            # The coordinator is acceptor 0: its own ack starts the ring
            # at acceptor 1.
            yield host.pauses.send_token
            host.send(Ack(message.seq, hop=1), 1 % host.n_nodes)
    elif cls is Ack:
        yield host.pauses.send_token
        if message.hop + 1 < host.n_nodes // 2 + 1:
            # Accept and forward along the acceptor ring.
            host.send(Ack(message.instance, message.hop + 1),
                      (host.pid + 1) % host.n_nodes)
        else:
            # Quorum complete: multicast the decision.
            host.send(Decision(message.instance), None)
            host.stable.add(message.instance)
    else:
        host.stable.add(message.instance)


@dataclass
class BaselineResult:
    """One throughput/latency point of a comparator."""

    offered_bps: float
    achieved_bps: float
    latency: LatencySummary
    saturated: bool
    socket_drops: int

    @property
    def latency_us(self) -> float:
        return self.latency.mean_s * 1e6

    @property
    def achieved_mbps(self) -> float:
        return self.achieved_bps / 1e6


def _run(handle: Callable, service: Service,
         backlog: Callable[[List[BaselineHost]], int], profile: CostProfile,
         spec: LinkSpec, offered_bps: float, n_nodes: int, payload_size: int,
         duration_s: float, warmup_s: float, seed: int) -> BaselineResult:
    """Saturated: the slowest receiver fell 10% short of the offered
    load, or the protocol's ``backlog`` ended above 200 messages."""
    sim = Simulator()
    switch = Switch(sim, spec)
    recorder = LatencyRecorder(warmup_until_s=warmup_s)
    hosts = [BaselineHost(sim, pid, n_nodes, spec, profile, switch, recorder,
                          handle, service) for pid in range(n_nodes)]
    spawn_injectors(sim, [functools.partial(h.submit, payload_size)
                          for h in hosts],
                    offered_bps, payload_size, duration_s, seed)
    sim.run(until=duration_s)
    achieved = recorder.min_throughput_bps(duration_s - warmup_s)
    return BaselineResult(
        offered_bps, achieved, recorder.summary(),
        achieved < offered_bps * 0.9 or backlog(hosts) > 200,
        sum(h.socket_drops for h in hosts),
    )


def run_sequencer_point(profile: CostProfile, spec: LinkSpec,
                        offered_bps: float, n_nodes: int = 8,
                        payload_size: int = 1350, duration_s: float = 0.25,
                        warmup_s: float = 0.08,
                        seed: int = 0) -> BaselineResult:
    """One throughput/latency measurement of the sequencer baseline."""
    return _run(
        _sequencer, Service.AGREED,
        # Undelivered messages stuck anywhere indicate saturation.
        lambda hosts: sum(len(h.ordered) + len(h.inbox) for h in hosts),
        profile, spec, offered_bps, n_nodes, payload_size, duration_s,
        warmup_s, seed)


def run_ringpaxos_point(profile: CostProfile, spec: LinkSpec,
                        offered_bps: float, n_nodes: int = 8,
                        payload_size: int = 1350, duration_s: float = 0.15,
                        warmup_s: float = 0.05,
                        seed: int = 0) -> BaselineResult:
    """One throughput/latency point of the Ring Paxos baseline."""
    return _run(
        _ring_paxos, Service.SAFE,
        # Instances the coordinator opened and has not yet delivered.
        lambda hosts: hosts[0].next_seq - 1 - hosts[0].delivered_upto,
        profile, spec, offered_bps, n_nodes, payload_size, duration_s,
        warmup_s, seed)
