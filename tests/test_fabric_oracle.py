"""Differential oracle: the arithmetic transmit line against the generator
fabric it replaced (``tests/reference_fabric.py``).

Both fabrics get the same schedule on their own kernels and must agree on
every delivery instant (bit for bit) and the order at each receiver, every
drop decision, ``max_queue_bytes``, ``Frame.sent_at`` and every counter and
occupancy reading — inside events, at a periodic probe and after the run.

Admits are calendar entries scheduled before the run, so in both fabrics
they run before anything the fabric itself scheduled for that instant —
the position every admit has in a simulated cluster with a non-zero
switch latency.  The probe periods are off the admit grid: at an exact
coincidence of a *ready-queue* reader with a frame's ``start``/``done``
the generator's answer depended on heap tie order, which is not part of
the model.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_fabric import ReferenceNic, ReferenceSwitch, ReferenceSwitchPort

from repro.net import (
    GIGABIT,
    BernoulliLoss,
    Frame,
    Nic,
    Simulator,
    Switch,
    SwitchPort,
    Timeout,
    Traffic,
    no_loss,
    register_fabric_metrics,
)
from repro.obs import MetricsRegistry

HOSTS = (0, 1, 2, 3)
MAX_WIRE = Frame(0, None, Traffic.DATA, 9000, None).wire
#: Probe periods at 1 Gbps, scaled with the line rate like the gaps (in
#: bit times): no sum of those gaps and serialisation delays hits them.
PROBE_S = 3.1415926e-6
SAMPLE_S = 7.0710678e-6


def bit_times(spec):
    """Seconds per nanosecond-at-1-Gbps on this spec's line."""
    return 1e9 / spec.rate_bps * 1e-9

sizes = st.integers(min_value=64, max_value=9000)
specs = st.builds(
    lambda rate, propagation, latency, frames, slack: replace(
        GIGABIT, rate_bps=rate, propagation_s=propagation,
        switch_latency_s=latency,
        # 1-4 mid-sized frames: overflow is common, a 9000-byte datagram
        # sometimes fits nowhere.
        port_buffer_bytes=frames * MAX_WIRE // 2 - slack,
        nic_queue_bytes=frames * MAX_WIRE // 2 - slack,
    ),
    st.sampled_from([1e7, 1e9, 1e10]),
    st.sampled_from([0.0, 1e-6, 2e-6]),
    st.sampled_from([0.0, 2.5e-6, 4e-6]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2000),
)
loss_rates = st.sampled_from([0.0, 0.0, 0.2])


def frame(src, dst, size, tag):
    return Frame(src=src, dst=dst, traffic=Traffic.DATA, size=size,
                 payload=tag)


class LineModel:
    """Where one line's ``start``/``done`` instants will fall, so a
    schedule can aim admits at them.  Not the oracle: a wrong model only
    makes the coincidences miss."""

    def __init__(self, spec, limit, loss):
        self.rate_bps = spec.rate_bps
        self.limit = limit
        self.loss = loss
        self.busy_until = 0.0
        self.records = []

    def admit(self, now, item):
        if self.loss(item):
            return
        waiting = sum(w for start, _, w in self.records if start >= now)
        if waiting + item.wire > self.limit:
            return
        start = max(now, self.busy_until)
        self.busy_until = done = start + item.wire * 8.0 / self.rate_bps
        self.records.append((start, done, item.wire))


# -- one line, admits aimed at its own boundaries ---------------------------

#: (where, size, joins the previous admit's event).  ``where``: a gap in
#: ns after the previous admit, or the start/done of an earlier frame.
line_ops = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=20_000),
            st.tuples(st.sampled_from(["start", "done"]),
                      st.integers(min_value=1, max_value=3)),
        ),
        sizes,
        st.booleans(),
    ),
    min_size=1, max_size=25,
)


def line_schedule(device, spec, ops, loss_rate):
    """[(instant, [frames])] aimed with a :class:`LineModel`, and the
    ``(start, done, wire)`` it expects of the accepted frames."""
    limit = spec.nic_queue_bytes if device == "nic" else spec.port_buffer_bytes
    loss = (BernoulliLoss(loss_rate, seed=5)
            if device == "port" and loss_rate else no_loss)
    model = LineModel(spec, limit, loss)
    events = []
    now = 0.0
    for tag, (where, size, joins) in enumerate(ops):
        if isinstance(where, int):
            now += where * bit_times(spec)
        elif len(model.records) >= where[1]:
            boundary = model.records[-where[1]][where[0] == "done"]
            now = max(now, boundary)
        item = frame(0, 1, size, tag)
        model.admit(now, item)
        if joins and events and events[-1][0] == now:
            events[-1][1].append((size, tag))
        else:
            events.append((now, [(size, tag)]))
    return events, model.records


def run_line(reference, device, spec, events, loss_rate, split_at):
    """Everything observable of one line under ``events``."""
    sim = Simulator()
    arrivals = []
    log = []

    def deliver(item):
        arrivals.append((sim.now, item.payload))

    if device == "nic":
        line = (ReferenceNic if reference else Nic)(sim, 0, spec, deliver)
        admit = line.send
        counters = ("frames_sent", "bytes_sent", "drops_overflow",
                    "queued_bytes", "is_idle")
    else:
        loss = BernoulliLoss(loss_rate, seed=5) if loss_rate else no_loss
        line = (ReferenceSwitchPort if reference else SwitchPort)(
            sim, 1, spec, deliver, loss)
        admit = line.enqueue
        counters = ("frames_forwarded", "bytes_forwarded", "drops_overflow",
                    "drops_injected", "queued_bytes", "max_queue_bytes")

    def read(label):
        log.append((label, sim.now)
                   + tuple(getattr(line, name) for name in counters))

    def burst(items):
        for size, tag in items:
            item = frame(0, 1, size, tag)
            log.append(("admit", tag, admit(item), item.sent_at))
            read("in-event")

    def probe():
        while True:
            yield Timeout(PROBE_S * 1e9 * bit_times(spec))
            read("probe")

    for when, items in events:
        sim.call_in(when, burst, items)
    sim.spawn(probe(), "probe")
    end = events[-1][0] + 6 * MAX_WIRE * 8.0 / spec.rate_bps
    sim.run(until=min(split_at, end))
    read("between runs")
    sim.run(until=end)
    read("end")
    return arrivals, log


@pytest.mark.parametrize("device", ["nic", "port"])
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs, ops=line_ops, loss_rate=loss_rates,
       split=st.tuples(st.sampled_from(["start", "done"]),
                       st.integers(min_value=1, max_value=3)))
def test_line_matches_reference_at_its_own_boundaries(
        device, spec, ops, loss_rate, split):
    events, records = line_schedule(device, spec, ops, loss_rate)
    # The run is cut in two at a boundary instant too: a reader between
    # runs stands *after* that instant (rule (a), second half).
    split_at = (records[-min(split[1], len(records))][split[0] == "done"]
                if records else 0.0)
    expected = run_line(True, device, spec, events, loss_rate, split_at)
    assert run_line(False, device, spec, events, loss_rate,
                    split_at) == expected


# -- the whole fabric: NIC, crossbar, grouped multicast copies ---------------

#: (gap ns, [(via NIC 0 or straight onto the crossbar, src, dst, size)]).
fabric_ops = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 100, 1_136, 12_000, 40_000]),
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(HOSTS[1:]),
                      st.sampled_from((None, None) + HOSTS), sizes),
            min_size=1, max_size=3,
        ),
    ),
    min_size=1, max_size=20,
)


def run_fabric(reference, spec, ops, loss_rate, partition_at):
    sim = Simulator()
    switch = (ReferenceSwitch if reference else Switch)(sim, spec)
    arrivals = {host: [] for host in HOSTS}
    for host in HOSTS:
        loss = (BernoulliLoss(loss_rate, seed=host)
                if loss_rate and host != 2 else no_loss)
        switch.attach(
            host,
            lambda item, log=arrivals[host]: log.append(
                (sim.now, item.payload, item.sent_at)),
            loss,
        )
    nic = (ReferenceNic if reference else Nic)(sim, 0, spec, switch.receive)
    # Every fabric counter, read through the registry the product uses,
    # inside events, at two periodic probes and after the run.
    registry = MetricsRegistry()
    register_fabric_metrics(registry, switch, [nic])
    samples = []

    def sampler():
        while True:
            yield Timeout(SAMPLE_S * 1e9 * bit_times(spec))
            samples.append((sim.now, registry.snapshot()))

    sim.spawn(sampler(), "sampler")
    log = []

    def read(label):
        log.append((label, sim.now, nic.queued_bytes, nic.is_idle,
                    registry.snapshot(), switch.drop_report(),
                    [switch.port(h).queued_bytes for h in HOSTS],
                    [switch.port(h).bytes_forwarded for h in HOSTS]))

    def burst(items):
        for tag, (via_nic, src, dst, size) in items:
            if via_nic:
                if dst != 0:
                    log.append((tag, nic.send(frame(0, dst, size, tag))))
            elif dst != src:
                switch.receive(frame(src, dst, size, tag))
        read("in-event")

    def probe():
        while True:
            yield Timeout(PROBE_S * 1e9 * bit_times(spec))
            read("probe")

    now = 0.0
    tag = 0
    for index, (gap_ns, items) in enumerate(ops):
        now += gap_ns * bit_times(spec)
        sim.call_in(now, burst, list(enumerate(items, tag)))
        tag += len(items)
        if index == partition_at:
            sim.call_in(now, switch.set_partition, (0, 1), (2, 3))
        elif index == partition_at + 3:
            sim.call_in(now, switch.heal)
    sim.spawn(probe(), "probe")
    end = now + 6 * MAX_WIRE * 8.0 / spec.rate_bps
    sim.run(until=end)
    read("end")
    return arrivals, log, samples


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs, ops=fabric_ops, loss_rate=loss_rates,
       partition_at=st.integers(min_value=0, max_value=30))
def test_fabric_matches_reference(spec, ops, loss_rate, partition_at):
    expected = run_fabric(True, spec, ops, loss_rate, partition_at)
    assert run_fabric(False, spec, ops, loss_rate, partition_at) == expected


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open bug: max_queue_bytes at a zero-latency start/done tie "
           "(ROADMAP #1, also open)",
)
def test_fabric_matches_reference_at_a_zero_latency_tie():
    """Known-open bug, pinned so the failing schedule is deterministic
    instead of a rare hypothesis draw: delivery instants agree, but a
    frame whose ``start``/``done`` ties an admit at the same instant
    counts as still queued, so switch ports 2 and 3 report a
    ``max_queue_bytes`` of 1848 against the reference's 1714.  Flip to a
    plain test when the tie is fixed."""
    spec = replace(
        GIGABIT, rate_bps=1e7, propagation_s=0.0, switch_latency_s=0.0,
        port_buffer_bytes=4710, nic_queue_bytes=4710,
    )
    ops = [(0, [(False, 1, None, 64)]), (0, [(True, 1, None, 1574)] * 2),
           (1136, [(True, 1, None, 1574)]), (40000, [(False, 1, None, 64)])]
    expected = run_fabric(True, spec, ops, 0.0, 0)
    actual = run_fabric(False, spec, ops, 0.0, 0)
    assert actual[0] == expected[0]  # the arrivals agree
    assert actual == expected


# -- the equivalence rules, by name -----------------------------------------

def both(build):
    """``build(reference)`` on either fabric; asserts equal observations."""
    expected = build(True)
    assert build(False) == expected
    return expected


def test_rule_a_boundary_instant_inside_an_event_and_after_the_run():
    wire = frame(0, 1, 1430, None).wire
    spec = replace(GIGABIT, port_buffer_bytes=2 * wire)
    done_first = wire * 8.0 / spec.rate_bps

    def build(reference):
        sim = Simulator()
        port = (ReferenceSwitchPort if reference else SwitchPort)(
            sim, 1, spec, lambda item: None)
        seen = {}
        port.enqueue(frame(0, 1, 1430, "first"))   # starts at 0
        port.enqueue(frame(0, 1, 1430, "second"))  # starts when first is done
        seen["before the run"] = port.queued_bytes

        def at_the_boundary():
            # first.done == second.start == now, inside a calendar event:
            # nothing has happened yet at this instant.
            seen["inside"] = (port.queued_bytes, port.frames_forwarded)
            # One byte more than fits beside second, which still holds
            # its place in the buffer; then a frame that fits beside it.
            port.enqueue(frame(0, 1, 1431, "too big"))
            port.enqueue(frame(0, 1, 1430, "third"))
            seen["drops"] = port.drops_overflow

        sim.call_in(done_first, at_the_boundary)
        sim.run(until=done_first)
        # The run is over, and with it the instant: first was forwarded,
        # second left the buffer for the wire, third waits.
        seen["after"] = (sim.now, port.queued_bytes, port.frames_forwarded)
        sim.run()
        seen["end"] = (port.queued_bytes, port.frames_forwarded,
                       port.max_queue_bytes)
        return seen

    assert both(build) == {
        "before the run": 2 * wire,
        "inside": (wire, 0),
        "drops": 1,
        "after": (done_first, wire, 1),
        "end": (0, 3, 2 * wire),
    }


def test_rule_a_an_admit_lost_to_injected_loss_still_stands_inside_the_instant():
    wire = frame(0, 1, 1430, None).wire
    done_first = wire * 8.0 / GIGABIT.rate_bps

    def build(reference):
        sim = Simulator()
        port = (ReferenceSwitchPort if reference else SwitchPort)(
            sim, 1, GIGABIT, lambda item: None,
            lambda item: item.payload == "lost")
        seen = {}

        def at_the_boundary():
            # After an earlier run returned, the only admit attempt of
            # this event is one injected loss drops: the reader still
            # stands inside the instant, where first is not yet sent.
            port.enqueue(frame(0, 1, 1430, "lost"))
            seen["inside"] = (port.frames_forwarded, port.drops_injected)

        sim.call_in(0.0, port.enqueue, frame(0, 1, 1430, "first"))
        sim.call_in(done_first, at_the_boundary)
        sim.run(until=done_first / 2)
        sim.run()
        seen["end"] = port.frames_forwarded
        return seen

    assert both(build) == {"inside": (0, 1), "end": 1}


@pytest.mark.parametrize("propagation_s, switch_latency_s",
                         [(0.0, 4e-6), (2e-6, 0.0), (0.0, 0.0)])
def test_rule_c_zero_delays_go_through_the_ready_queue(
        propagation_s, switch_latency_s):
    spec = replace(GIGABIT, propagation_s=propagation_s,
                   switch_latency_s=switch_latency_s)

    def build(reference):
        sim = Simulator()
        switch = (ReferenceSwitch if reference else Switch)(sim, spec)
        seen = []
        for host in HOSTS:
            switch.attach(host, lambda item, host=host: seen.append(
                (sim.now, host, item.payload)))
        nic = (ReferenceNic if reference else Nic)(sim, 0, spec,
                                                   switch.receive)
        at_switch = []
        nic.send(frame(0, None, 1430, "multicast"))
        nic.send(frame(0, 2, 200, "unicast"))
        done = frame(0, None, 1430, None).wire * 8.0 / spec.rate_bps
        # A calendar event at the very instant the first frame has left
        # the NIC: with no propagation delay the frame reaches the
        # switch at that instant, but from the ready queue — after this.
        sim.call_in(done, lambda: at_switch.append(switch.frames_received))
        sim.run()
        return seen, at_switch, nic.frames_sent, sim.now

    seen, at_switch, sent, _now = both(build)
    assert at_switch == [0] and sent == 2 and len(seen) == 4


def test_rule_d_drop_decisions_and_switch_controls_keep_their_behaviour():
    wire = frame(0, 1, 1000, None).wire
    spec = replace(GIGABIT, port_buffer_bytes=2 * wire,
                   nic_queue_bytes=2 * wire)

    def build(reference):
        sim = Simulator()
        switch = (ReferenceSwitch if reference else Switch)(sim, spec)
        seen = {host: [] for host in HOSTS}
        for host in HOSTS:
            switch.attach(host, lambda item, host=host: seen[host].append(
                (sim.now, item.payload)))
        nic = (ReferenceNic if reference else Nic)(sim, 0, spec,
                                                   switch.receive)
        asked = []

        def loss(item):  # consulted before the buffer, full or not
            asked.append(item.payload)
            return item.payload == "lost"

        switch.set_port_loss(1, loss)
        frames = [frame(0, 1, 1000, tag) for tag in ("a", "b", "c")]
        sent = []
        sim.call_in(1e-6, lambda: sent.extend(map(nic.send, frames)))
        tapped = []
        switch.set_capture(lambda item: tapped.append(item.payload))
        switch.add_fault_filter(lambda item: item.payload == "filtered")
        for tag in ("x", "lost", "y", "z", "filtered"):
            switch.receive(frame(2, None, 1000, tag))
        switch.port(3).enqueue(frame(2, 3, 1000, "direct"))
        sim.run()
        switch.set_partition((0, 1), (2, 3))
        switch.receive(frame(2, None, 1000, "split"))
        switch.receive(frame(2, 1, 1000, "cut"))
        sim.run()
        switch.heal()
        switch.receive(frame(2, None, 1000, "healed"))
        sim.run()
        stamps = [item.sent_at for item in frames]
        return (seen, sent, stamps, asked, tapped, switch.drop_report(),
                switch.drops_fault, switch.drops_partition,
                nic.drops_overflow, nic.frames_sent)

    seen, sent, stamps, asked, tapped, report, fault, cut, nic_drops, _ = (
        both(build))
    assert sent == [True, True, False] and nic_drops == 1
    assert stamps == [1e-6, 1e-6, 0.0]  # stamped on acceptance only
    # Port 1 was asked about z although its buffer was full by then.
    assert asked == ["x", "lost", "y", "z", "a", "b", "healed"]
    assert report[1]["injected"] == 1 and report[1]["overflow"] == 1
    assert report[3]["overflow"] == 2  # y and z: direct holds the wire
    assert report[1]["max_queue_bytes"] == 2 * wire
    assert "filtered" in tapped and fault == 1 and cut == 1
    assert [tag for _, tag in seen[3]] == [
        "direct", "x", "lost", "split", "healed"]
