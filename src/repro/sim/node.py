"""A simulated host: single-threaded CPU driving the protocol engine.

Models what the paper's daemons actually are: one process, one core,
reading from two UDP sockets (token and data on different ports, Section
III-D), paying CPU for every receive, send, and delivery.  The
token/data priority switching is implemented exactly as described: when
data has high priority the token socket is not read unless no data
message is available, and vice versa.
"""

from __future__ import annotations

import functools
from heapq import heappush
from typing import Any, Callable, Optional

from ..core import (
    DataMessage,
    Participant,
    ProtocolConfig,
    Ring,
    Service,
    Token,
)
from ..core.coalesce import JumboDatagram
from ..core.driver import RingDriver
from ..core.packing import PackedPayload
from ..net import Frame, LinkSpec, Nic, Simulator, Switch, Timeout, Traffic
from .latency import LatencyRecorder
from .profiles import CostProfile


class _PauseTable(dict):
    """payload bytes -> the cached Timeout of one CPU charge.

    Timeout objects are immutable, so the CPU-charge pauses — a handful
    of distinct cost values repeated millions of times — are cached per
    payload size instead of allocated per event.  A hit is a plain dict
    lookup; only a miss runs Python.
    """

    __slots__ = ("_cost",)

    def __init__(self, cost: Callable[[int], float]) -> None:
        self._cost = cost

    def __missing__(self, size: int) -> Timeout:
        pause = self[size] = Timeout(self._cost(size))
        return pause


class CpuPauses:
    """What the driver loop yields before each effect on a simulated host."""

    __slots__ = ("recv_token", "send_token", "recv_data", "send_data",
                 "deliver")

    def __init__(self, profile: CostProfile) -> None:
        self.recv_token = Timeout(profile.recv_token_cpu_s)
        self.send_token = Timeout(profile.send_token_cpu_s)
        self.recv_data = _PauseTable(profile.data_recv_cost)
        self.send_data = _PauseTable(profile.data_send_cost)
        self.deliver = _PauseTable(profile.deliver_cost)


class SimNode:
    """One ring participant bound to the simulated network.

    The daemon loop itself is :class:`repro.core.driver.RingDriver`,
    spawned as this host's single CPU process; the node is its port:
    the socket buffer, the CPU charges, and frames to the NIC.
    """

    __slots__ = (
        "sim", "pid", "profile", "spec", "recorder", "participant",
        "nic", "driver", "pauses", "idle", "clock", "deliver",
        "_tokens", "_data", "_data_queue_bytes", "_socket_buffer_bytes",
        "_sim_ready", "socket_drops", "_process", "_deadline",
    )

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        ring: Ring,
        config: ProtocolConfig,
        profile: CostProfile,
        spec: LinkSpec,
        switch: Switch,
        recorder: LatencyRecorder,
        deliver_callback: Optional[Callable[[int, DataMessage], None]] = None,
    ) -> None:
        self.sim = sim
        self.pid = pid
        self.profile = profile
        self.spec = spec
        self.recorder = recorder
        self.participant = Participant(pid, ring, config)
        self.nic = Nic(sim, pid, spec, switch.receive)
        switch.attach(pid, self._on_frame)
        self.deliver = self._make_deliver(deliver_callback)

        self.driver = RingDriver(self, profile.header_bytes)
        self._tokens = self.driver.tokens
        self._data = self.driver.data
        self._data_queue_bytes = 0
        self._socket_buffer_bytes = spec.socket_buffer_bytes
        self.pauses = CpuPauses(profile)
        self.idle = sim.signal("node%d" % pid)
        # partial(getattr, ...) stays entirely in C, like the tracer's.
        self.clock = functools.partial(getattr, sim, "now")
        self._sim_ready = sim._ready
        self.socket_drops = 0
        #: The armed resend ``(when, fn, args)``; None with no calendar
        #: entry in flight.
        self._deadline: Optional[tuple] = None
        self._process = sim.spawn(self.driver.run(), "cpu%d" % pid)

    @property
    def tokens_resent(self) -> int:
        return self.driver.tokens_resent

    # -- application-facing -------------------------------------------------

    def submit(
        self,
        payload: Any,
        service: Service,
        payload_size: int,
    ) -> None:
        """Inject one application message (timestamped now)."""
        self.participant.submit(
            payload, service, payload_size, submitted_at=self.sim.now
        )

    @property
    def backlog(self) -> int:
        return self.participant.backlog

    # -- network-facing -------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if frame.traffic is Traffic.TOKEN:
            # Token socket: tokens are tiny and rare; the buffer holds
            # any realistic number of them.
            self._tokens.append(frame.payload)
        else:
            wire = frame.wire
            if self._data_queue_bytes + wire > self._socket_buffer_bytes:
                self.socket_drops += 1
                return
            self._data.append(frame)
            self._data_queue_bytes += wire
        # Inlined Signal.fire (value=None): one call per received frame.
        waiters = self.idle._waiters
        if waiters:
            self._sim_ready.extend(waiters)
            waiters.clear()

    def start_with_token(self, token: Token) -> None:
        """Install the first regular token (membership's hand-off)."""
        self._tokens.append(token)
        self.idle.fire()

    # -- the driver's port ------------------------------------------------------

    def unwrap(self, frame: Frame) -> Any:
        """The daemon read a datagram: its bytes leave the socket buffer."""
        self._data_queue_bytes -= frame.wire
        return frame.payload

    def multicast(self, message: DataMessage) -> None:
        self.nic.send(Frame(
            self.pid, None, Traffic.DATA,
            message.payload_size + self.profile.header_bytes, message,
        ))

    def multicast_batch(self, messages, datagram_bytes: int) -> None:
        self.nic.send(Frame(
            self.pid, None, Traffic.JUMBO, datagram_bytes,
            JumboDatagram(tuple(messages)),
        ))

    def send_token(self, token: Token, dst: int) -> None:
        self.nic.send(Frame(self.pid, dst, Traffic.TOKEN, token.size, token))

    def _make_deliver(self, callback: Optional[Callable]) -> Callable:
        """The port's ``deliver(message)``, as a closure over its inputs:
        it runs once per message per node, and the attribute reads a
        method would repeat there cost as much as the accounting."""
        pid = self.pid
        sim = self.sim
        record = self.recorder.record

        def deliver(message: DataMessage) -> None:
            payload = message.payload
            if isinstance(payload, PackedPayload):
                # Packed packets: account each application message
                # individually (its own submit time and size).
                for item in payload.items:
                    record(pid, message.service, item.submitted_at,
                           sim.now, item.payload_size)
            else:
                record(pid, message.service, message.submitted_at,
                       sim.now, message.payload_size)
            if callback is not None:
                callback(pid, message)

        return deliver

    def set_timer(self, delay_s: float, fn: Callable, *args: Any) -> None:
        """One deadline, one calendar entry: a newer call supersedes the
        armed one (see :meth:`repro.core.driver.DriverPort.set_timer`)."""
        sim = self.sim
        now = sim.now
        armed = self._deadline is not None
        # The instant ``sim.call_at(now + delay_s, ...)`` arrives at.
        when = now + ((now + delay_s) - now)
        self._deadline = (when, fn, args)
        if not armed:
            heappush(sim._queue, (when, next(sim._tie),
                                  (self._on_deadline, ())))

    def _on_deadline(self) -> None:
        when, fn, args = self._deadline
        sim = self.sim
        if when > sim.now:
            # Superseded while armed: sleep on to the latest deadline,
            # pushed as the absolute instant stored when it was set (not
            # re-derived through ``call_at``'s ``now + (when - now)``).
            heappush(sim._queue, (when, next(sim._tie),
                                  (self._on_deadline, ())))
        else:
            self._deadline = None
            fn(*args)
