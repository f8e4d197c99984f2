"""One transmit line: a bounded buffer clocked out at line rate.

A host NIC and a switch output port are the same device: frames wait in
a byte-bounded FIFO, leave it one at a time at the link rate, and reach
the far end one propagation delay after their last bit.  Nothing decides
anything in between, so the line is arithmetic, not a process: admitting
a frame at ``now`` fixes ``start = max(now, busy_until)`` and ``done =
start + wire * 8.0 / rate_bps`` (the new ``busy_until``), and the caller
puts **one** calendar entry at ``done + propagation_s`` — the float
operations, in the order, of the transmit coroutine this replaced
(``tests/reference_fabric.py`` keeps it as the oracle), so every instant
is bit-identical.

A frame occupies the buffer until ``start`` and counts as sent from
``done``; both are settled lazily from the ``(start, done, wire)``
records of the frames still on the line, trimmed on every admit and
every read: the state is O(frames on the line), never O(frames sent).

A ``start`` or ``done`` that is exactly ``now``: the coroutine acted on
both from the ready queue, *after* every calendar event of the instant.
So inside an event that frame still occupies the buffer and is not yet
sent; once the run has returned the instant is over and both happened.
The kernel adds a run's events to ``event_count`` only when ``run()``
returns: a count that moved since the last admit tells a reader it
stands after the run (DESIGN.md section 9).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import inf, nextafter
from typing import Any, Callable, Deque, Optional, Tuple

from .engine import Simulator
from .frames import Frame
from .links import LinkSpec


def push_arrival(sim: Simulator, propagation_s: float, when: float,
                 fn: Callable, args: Tuple[Any, ...]) -> None:
    """Put ``fn(*args)`` on the calendar at ``when``, an instant
    :meth:`TransmitLine._admit` returned.  With no propagation delay
    that is the frame's ``done``, and the call takes ``call_in(0)``'s
    route from there: the ready queue, after the instant's calendar."""
    if not propagation_s:
        fn, args = sim._ready.append, ((fn, args),)
    heappush(sim._queue, (when, next(sim._tie), (fn, args)))


class TransmitLine:
    """Base of :class:`~repro.net.nic.Nic` and
    :class:`~repro.net.switch.SwitchPort`."""

    __slots__ = (
        "sim", "host_id", "spec", "_deliver", "_limit", "_rate_bps",
        "_propagation_s", "_busy_until", "_line", "_line_bytes",
        "_frames_done", "_bytes_done", "_epoch", "drops_overflow",
        "max_queue_bytes",
    )

    def __init__(self, sim: Simulator, host_id: int, spec: LinkSpec,
                 deliver: Callable[[Frame], None], limit_bytes: int) -> None:
        self.sim = sim
        self.host_id = host_id
        self.spec = spec
        self._deliver = deliver
        self._limit = limit_bytes
        self._rate_bps = spec.rate_bps
        self._propagation_s = spec.propagation_s
        self._busy_until = 0.0
        #: ``(start, done, wire)`` of every frame not yet settled as sent.
        self._line: Deque[Tuple[float, float, int]] = deque()
        self._line_bytes = 0
        self._frames_done = 0
        self._bytes_done = 0
        self._epoch = sim._event_count
        self.drops_overflow = 0
        self.max_queue_bytes = 0

    def _admit(self, wire: int) -> Optional[float]:
        """Buffer ``wire`` bytes now: the instant their last bit reaches
        the far end, or ``None`` (an overflow drop, counted)."""
        sim = self.sim
        now = sim.now
        self._epoch = sim._event_count
        queued = self._settle(now) + wire
        if queued > self._limit:
            self.drops_overflow += 1
            return None
        if queued > self.max_queue_bytes:
            self.max_queue_bytes = queued
        start = self._busy_until
        if start < now:
            start = now
        self._busy_until = done = start + wire * 8.0 / self._rate_bps
        self._line.append((start, done, wire))
        self._line_bytes += wire
        return done + self._propagation_s

    def _launch(self, when: float, frame: Frame) -> None:
        """Deliver ``frame`` at ``when``, the instant :meth:`_admit` gave."""
        push_arrival(self.sim, self._propagation_s, when,
                     self._deliver, (frame,))

    def _settle(self, edge: float) -> int:
        """Count frames done before ``edge`` as sent; the bytes still
        buffered, i.e. of frames that start at or after ``edge``."""
        line = self._line
        while line and line[0][1] < edge:
            wire = line.popleft()[2]
            self._line_bytes -= wire
            self._frames_done += 1
            self._bytes_done += wire
        if line and line[0][0] < edge:
            return self._line_bytes - line[0][2]
        return self._line_bytes

    def _read(self) -> int:
        """:meth:`_settle` as a reader outside the admit path sees it."""
        sim = self.sim
        if sim._event_count == self._epoch:
            return self._settle(sim.now)
        return self._settle(nextafter(sim.now, inf))

    @property
    def queued_bytes(self) -> int:
        return self._read()
