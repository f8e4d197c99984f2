"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.net.engine import SimulationError, Simulator, Timeout


def test_callbacks_run_in_time_order():
    sim = Simulator()
    order = []
    sim.call_in(2.0, order.append, "b")
    sim.call_in(1.0, order.append, "a")
    sim.call_in(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.call_in(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_call_at_schedules_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_in(1.0, lambda: sim.call_at(5.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-0.1, lambda: None)


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.call_in(10.0, fired.append, True)
    sim.run(until=5.0)
    assert not fired
    assert sim.now == 5.0
    sim.run()
    assert fired == [True]


def test_process_timeout_advances_time():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.now)
        yield Timeout(1.5)
        log.append(sim.now)
        yield Timeout(0.5)
        log.append(sim.now)

    sim.spawn(proc(), "p")
    sim.run()
    assert log == [0.0, 1.5, 2.0]


def test_signal_wakes_waiters_in_order():
    sim = Simulator()
    signal = sim.signal("s")
    woken = []

    def waiter(tag):
        yield signal
        woken.append((tag, sim.now))

    sim.spawn(waiter("a"), "a")
    sim.spawn(waiter("b"), "b")
    sim.call_in(3.0, signal.fire)
    sim.run()
    assert woken == [("a", 3.0), ("b", 3.0)]


def test_signal_is_reusable():
    sim = Simulator()
    signal = sim.signal()
    hits = []

    def waiter():
        while True:
            yield signal
            hits.append(sim.now)

    sim.spawn(waiter(), "w")
    sim.call_in(1.0, signal.fire)
    sim.call_in(2.0, signal.fire)
    sim.run(until=3.0)
    assert hits == [1.0, 2.0]


def test_signal_has_no_memory():
    sim = Simulator()
    signal = sim.signal()
    woken = []

    def late_waiter():
        yield Timeout(2.0)  # the fire at t=1 happens before we wait
        yield signal
        woken.append(sim.now)

    sim.spawn(late_waiter(), "late")
    sim.call_in(1.0, signal.fire)
    sim.run(until=10.0)
    assert woken == []


def test_interrupted_process_never_resumes():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(1.0)
        log.append("should not happen")

    process = sim.spawn(proc(), "p")
    sim.call_in(0.5, process.interrupt)
    sim.run()
    assert log == []


def test_bad_yield_raises():
    sim = Simulator()

    def bad():
        yield "nonsense"

    sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_max_events_backstop():
    sim = Simulator()

    def forever():
        while True:
            yield Timeout(1.0)

    sim.spawn(forever(), "loop")
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_event_count_increases():
    sim = Simulator()
    for _ in range(5):
        sim.call_in(1.0, lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_max_events_budget_is_per_call():
    sim = Simulator()

    def ticker():
        while True:
            yield Timeout(1.0)

    sim.spawn(ticker(), "tick")
    # Each run() call gets a fresh max_events budget, independent of the
    # cumulative event_count (documented per-call semantics).
    sim.run(until=20.0, max_events=60)
    first = sim.event_count
    assert first > 30
    sim.run(until=40.0, max_events=60)  # would raise if budget were global
    assert sim.event_count > first
    with pytest.raises(SimulationError):
        sim.run(until=10_000.0, max_events=30)
