"""The generator fabric the arithmetic transmit line replaced — a test oracle.

Until ISSUE 22 a host NIC and a switch output port were each a kernel
process: a queue, a wake-up ``Signal`` and a ``_tx_loop`` that slept for
``wire * 8 / rate`` per frame.  :class:`repro.net.line.TransmitLine`
computes the same instants without the process.  This module keeps the
old devices — the same statements in the same order, minus their
hand-inlining — as the reference ``tests/test_fabric_oracle.py`` drives
side by side with the product fabric; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque

from repro.net.engine import Simulator, Timeout
from repro.net.frames import Frame
from repro.net.links import LinkSpec
from repro.net.loss import LossModel, no_loss
from repro.net.switch import Switch


class _ReferenceLine:
    """Queue + signal + transmit coroutine, as both devices had it."""

    def __init__(self, sim: Simulator, name: str, spec: LinkSpec,
                 deliver: Callable[[Frame], None], limit: int) -> None:
        self.sim = sim
        self.spec = spec
        self._deliver = deliver
        self._queue: Deque[Frame] = deque()
        self._queued_bytes = 0
        self._queue_limit = limit
        self._wakeup = sim.signal(name + ".tx")
        self._frames = 0
        self._bytes = 0
        self.drops_overflow = 0
        self._process = sim.spawn(self._tx_loop(), name)

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def _tx_loop(self):
        queue = self._queue
        rate_bps = self.spec.rate_bps
        propagation_s = self.spec.propagation_s
        sim = self.sim
        while True:
            if not queue:
                yield self._wakeup
                continue
            frame = queue.popleft()
            wire = frame.wire
            self._queued_bytes -= wire
            yield Timeout(wire * 8.0 / rate_bps)
            self._frames += 1
            self._bytes += wire
            if propagation_s:
                heappush(sim._queue, (sim.now + propagation_s,
                                      next(sim._tie),
                                      (self._deliver, (frame,))))
            else:
                sim._ready.append((self._deliver, (frame,)))


class ReferenceNic(_ReferenceLine):
    def __init__(self, sim, host_id, spec, deliver_to_switch) -> None:
        super().__init__(sim, "nic%d" % host_id, spec, deliver_to_switch,
                         spec.nic_queue_bytes)
        self.host_id = host_id

    def send(self, frame: Frame) -> bool:
        wire = frame.wire
        if self._queued_bytes + wire > self._queue_limit:
            self.drops_overflow += 1
            return False
        frame.sent_at = self.sim.now
        self._queue.append(frame)
        self._queued_bytes += wire
        self._wakeup.fire()
        return True

    @property
    def is_idle(self) -> bool:
        return not self._queue

    @property
    def frames_sent(self) -> int:
        return self._frames

    @property
    def bytes_sent(self) -> int:
        return self._bytes


class ReferenceSwitchPort(_ReferenceLine):
    def __init__(self, sim, host_id, spec, deliver,
                 loss: LossModel = no_loss) -> None:
        super().__init__(sim, "port%d" % host_id, spec, deliver,
                         spec.port_buffer_bytes)
        self.host_id = host_id
        self._loss = loss
        self.drops_injected = 0
        self.max_queue_bytes = 0

    def enqueue(self, frame: Frame) -> None:
        loss = self._loss
        if loss is not no_loss and loss(frame):
            self.drops_injected += 1
            return
        wire = frame.wire
        queued = self._queued_bytes + wire
        if queued > self._queue_limit:
            self.drops_overflow += 1
            return
        self._queue.append(frame)
        self._queued_bytes = queued
        if queued > self.max_queue_bytes:
            self.max_queue_bytes = queued
        self._wakeup.fire()

    @property
    def frames_forwarded(self) -> int:
        return self._frames

    @property
    def bytes_forwarded(self) -> int:
        return self._bytes


class ReferenceSwitch(Switch):
    """The product crossbar over reference ports: one ``enqueue`` per
    copy of a multicast, each with its own calendar entries."""

    __slots__ = ()

    def attach(self, host_id, deliver, loss=no_loss):
        if host_id in self._ports:
            raise ValueError("host %d already attached" % host_id)
        port = ReferenceSwitchPort(self.sim, host_id, self.spec, deliver, loss)
        self._ports[host_id] = port
        self._fanout.clear()
        return port

    def _forward(self, frame: Frame) -> None:
        for predicate in tuple(self._fault_filters):
            if predicate(frame):
                self.drops_fault += 1
                return
        if frame.dst is not None:
            return super()._forward(frame)  # unicast: only port.enqueue
        for host_id, port in self._ports.items():
            if host_id != frame.src and self.connected(frame.src, host_id):
                port.enqueue(frame)
