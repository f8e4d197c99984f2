"""Discrete-event simulation kernel.

A deliberately small, fast, generator-based kernel in the style of simpy.
Simulated entities are *processes*: Python generators that yield either a
:class:`Timeout` (sleep for simulated seconds) or a :class:`Signal` (wait
until some other process fires it).  A resumed process gets no value back
from its ``yield``.  The kernel owns a single event queue ordered by
simulated time; ties are broken by insertion order so the simulation is
fully deterministic.

The network substrate (:mod:`repro.net`) and the protocol hosts
(:mod:`repro.sim`) are built entirely on this kernel, which keeps the
protocol code free of wall-clock concerns and makes every experiment
reproducible bit-for-bit.

Performance notes
-----------------
The kernel is the hot loop of every benchmark: a simulated second pushes
millions of events through :meth:`Simulator.run`, so the event path is
tuned while keeping the *observable order identical* to a single heap
with insertion-order tie-breaking (locked in by
``tests/test_determinism.py`` and the golden fingerprints in
``tests/test_golden_fingerprints.py``):

* Two queues back the loop: a binary heap (the calendar) for future
  events and a FIFO *ready queue* (an array-backed deque) for events at
  the current time.  Zero-delay events — process resumes,
  :meth:`Signal.fire`, ``call_in(0.0, ...)`` — never touch the heap.
* Events are dispatched **by type, not by callback**: a queue entry is
  either a bare :class:`Process` (a resume) or a ``(fn, args)`` pair (an
  arbitrary scheduled callback).  The run loop branches on the entry's
  class, so the hot path allocates *no* per-event tuples, no bound
  methods and no argument packs: a sleeping process costs one 3-tuple on
  the heap and one bare object reference on the ready queue.
* :meth:`Simulator.run` inlines the resume, including the
  :class:`Timeout` schedule (the single most common yield), and uses the
  ``generator.send`` cached at spawn time.
* :meth:`Signal.fire` bulk-appends its waiters with ``deque.extend``.

Ordering proof sketch (unchanged from the 4-tuple kernel): ready entries
never need insertion-order numbers because when simulated time advances
to T the ready queue is empty — every heap event at T was pushed *before*
T's execution began, while every ready entry at T is created *during* it.
Heap events at T therefore always run before ready events at T, and the
ready queue's FIFO order equals creation order.  The run loop encodes
exactly that: the heap head runs whenever its timestamp is ``<= now``.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple


class SimulationError(Exception):
    """Raised when the kernel is used incorrectly."""


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError("negative timeout: %r" % delay)
        self.delay = delay

    def __repr__(self) -> str:
        return "Timeout(%g)" % self.delay


class Signal:
    """A triggerable, reusable event.

    Processes that yield a signal are suspended until :meth:`fire` is
    called, at which point all current waiters are resumed in the order
    they started waiting.  Waiters that arrive after a fire wait for the
    next fire; a Signal carries no memory of past fires.
    """

    __slots__ = ("sim", "name", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._waiters: List["Process"] = []

    def fire(self) -> None:
        """Resume every process currently waiting on this signal."""
        waiters = self._waiters
        if waiters:
            # extend() copies the references first, so clearing in place
            # is safe and reuses the list (one fewer allocation per fire).
            self.sim._ready.extend(waiters)
            waiters.clear()

    def __repr__(self) -> str:
        return "Signal(%s, waiters=%d)" % (self.name, len(self._waiters))


class Process:
    """A running generator, driven by the kernel."""

    __slots__ = ("sim", "name", "_send", "alive")

    def __init__(self, sim: "Simulator", generator: Generator, name: str) -> None:
        self.sim = sim
        self.name = name
        #: Cached bound ``send`` — one attribute lookup saved per resume.
        self._send = generator.send
        self.alive = True

    def _yield_slow(self, yielded: Any) -> None:
        """Handle the rare yields: Signal/Timeout subclasses, junk.

        Split out of the exact-type fast paths inlined in
        :meth:`Simulator.run`.
        """
        if isinstance(yielded, Signal):
            yielded._waiters.append(self)
        elif isinstance(yielded, Timeout):
            self.sim.call_in(yielded.delay, self.sim._ready.append, self)
        else:
            raise SimulationError(
                "process %s yielded %r; expected Timeout or Signal"
                % (self.name, yielded)
            )

    def interrupt(self) -> None:
        """Stop the process.  It will never be resumed again."""
        self.alive = False

    def __repr__(self) -> str:
        return "Process(%s, alive=%s)" % (self.name, self.alive)


class Simulator:
    """The event loop: a time-ordered calendar of typed event entries.

    Two internal queues back the loop: a binary heap for events in the
    future and a FIFO *ready queue* (array-backed deque) for events at
    the current time.  Heap entries are ``(when, tie, entry)`` 3-tuples;
    ready-queue entries carry no timestamp at all.  ``entry`` is either a
    bare :class:`Process` — a timer resume (from the heap) or a pending
    resume (on the ready queue) — or a ``(fn, args)`` pair for arbitrary
    callbacks; :meth:`run` dispatches on the entry's class.

    Execution order is identical to a single heap with insertion-order
    tie-breaking: heap ties are unique ints (so the third tuple element
    is never compared), and at any timestamp all heap events run before
    all ready events — a heap event at time T is always pushed before T's
    execution starts, a ready event at T is always created during it.
    """

    __slots__ = ("now", "_queue", "_ready", "_tie", "_event_count")

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Any]] = []
        self._ready: Deque[Any] = deque()
        self._tie = itertools.count()
        self._event_count = 0

    # -- scheduling ------------------------------------------------------

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay > 0:
            heappush(self._queue, (self.now + delay, next(self._tie), (fn, args)))
        elif delay == 0:
            self._ready.append((fn, args))
        else:
            raise SimulationError("cannot schedule into the past (delay=%r)" % delay)

    def call_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        self.call_in(when - self.now, fn, *args)

    # -- processes -------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "process") -> Process:
        """Start a new process from a generator; it runs at the current time."""
        process = Process(self, generator, name)
        self._ready.append(process)
        return process

    def signal(self, name: str = "") -> Signal:
        return Signal(self, name)

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 200_000_000) -> None:
        """Drain the event queue.

        ``until`` bounds simulated time (events at exactly ``until`` run).

        ``max_events`` is a runaway-loop backstop counted **per call**:
        each ``run()`` invocation gets a fresh budget of ``max_events``
        events, independent of the cumulative :attr:`event_count` (which
        keeps growing across calls).
        """
        queue = self._queue
        ready = self._ready
        pop = heappop
        push = heappush
        popleft = ready.popleft
        ready_append = ready.append
        tie_next = self._tie.__next__
        limit = float("inf") if until is None else until
        count = 0
        now = self.now
        try:
            while True:
                # A ready entry runs unless a heap event is due at (or
                # before) the current time — heap events at time T always
                # precede ready events at T (see the class docstring).
                if ready and not (queue and queue[0][0] <= now):
                    # Drain the whole ready queue.  While draining, every
                    # heap push lands strictly after ``now`` (Timeout and
                    # call_in route zero delays to the ready queue), so
                    # the heap-head check cannot become true until time
                    # advances — one deque truth test per event replaces
                    # the full compound check.
                    while ready:
                        entry = popleft()
                        if entry.__class__ is Process:
                            # The resume, inlined: the single hottest
                            # event type, worth one saved Python call.
                            if entry.alive:
                                try:
                                    yielded = entry._send(None)
                                except StopIteration:
                                    entry.alive = False
                                else:
                                    cls = yielded.__class__
                                    if cls is Timeout:
                                        # Two hops either way (heap or
                                        # scheduler call, then the ready
                                        # queue), so the resume runs after
                                        # every other event due with it.
                                        delay = yielded.delay
                                        if delay:
                                            push(queue, (now + delay,
                                                         tie_next(), entry))
                                        else:
                                            ready_append(
                                                (ready_append, (entry,))
                                            )
                                    elif cls is Signal:
                                        yielded._waiters.append(entry)
                                    else:
                                        entry._yield_slow(yielded)
                        else:
                            entry[0](*entry[1])
                        count += 1
                        if count >= max_events:
                            raise SimulationError(
                                "exceeded max_events=%d" % max_events
                            )
                elif queue:
                    when = queue[0][0]
                    if when > limit:
                        self.now = until  # type: ignore[assignment]
                        return
                    entry = pop(queue)[2]
                    self.now = now = when
                    if entry.__class__ is Process:
                        # Timer resume: two-hop via the ready queue, so
                        # every other heap event at this time runs first.
                        ready.append(entry)
                    else:
                        entry[0](*entry[1])
                    count += 1
                    if count >= max_events:
                        raise SimulationError(
                            "exceeded max_events=%d" % max_events
                        )
                else:
                    break
            if until is not None:
                self.now = until
        finally:
            self._event_count += count

    @property
    def event_count(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._event_count

    def __repr__(self) -> str:
        return "Simulator(now=%g, pending=%d)" % (
            self.now, len(self._queue) + len(self._ready),
        )
