"""The fabric's counters as registry views (``repro.net.monitors``)."""

import pytest

from repro.net import (
    GIGABIT,
    Frame,
    Nic,
    Simulator,
    Switch,
    Timeout,
    Traffic,
    register_fabric_metrics,
)
from repro.obs import MetricsRegistry


def fabric(hosts=(0, 1, 2)):
    sim = Simulator()
    switch = Switch(sim, GIGABIT)
    nics = []
    for host in hosts:
        switch.attach(host, lambda f: None)
        nics.append(Nic(sim, host, GIGABIT, switch.receive))
    registry = MetricsRegistry()
    register_fabric_metrics(registry, switch, nics)
    return sim, switch, nics, registry


def frame(src, dst=None, size=1400):
    return Frame(src=src, dst=dst, traffic=Traffic.DATA, size=size, payload=None)


def test_snapshot_counts_sent_and_forwarded():
    sim, switch, nics, registry = fabric()
    for _i in range(5):
        nics[0].send(frame(0))          # multicast -> 2 forwards each
        nics[1].send(frame(1, dst=2))   # unicast  -> 1 forward each
    sim.run()
    cluster = registry.snapshot()["cluster"]
    assert cluster["net.nic.frames_sent"] == 10
    assert cluster["net.port.frames_forwarded"] == 5 * 2 + 5
    assert cluster["net.switch.frames_received"] == 10
    assert cluster["net.switch.class.data.frames"] == 10
    assert cluster["net.port.drops_overflow"] == 0
    assert cluster["net.nic.drops_overflow"] == 0
    assert cluster["net.nic.bytes_sent"] > 10 * 1400
    assert registry.nodes() == [0, 1, 2]


def test_periodic_sampling_collects_series():
    sim, switch, nics, registry = fabric()
    samples = []

    def sampler():
        while True:
            yield Timeout(0.001)
            samples.append(registry.total("net.nic.frames_sent"))

    def slow_sender():
        for _i in range(10):
            nics[0].send(frame(0))
            yield Timeout(0.0005)

    sim.spawn(sampler(), "sampler")
    sim.spawn(slow_sender(), "sender")
    sim.run(until=0.005)
    assert len(samples) == 5
    assert samples == sorted(samples)  # cumulative counters grow monotonically
    assert samples[-1] == 10


def test_utilization_fraction():
    sim, switch, nics, registry = fabric(hosts=(0, 1))
    # Send exactly 1 ms of line-rate traffic: ~83 frames of 1500B wire.
    wire = frame(0, dst=1, size=1430).wire
    count = int(1e9 * 0.001 / 8 / wire)
    for _i in range(count):
        nics[0].send(frame(0, dst=1, size=1430))
    sim.run()
    utilization = registry.total("net.nic.bytes_sent") * 8.0 / 0.001 / (
        GIGABIT.rate_bps)
    assert utilization == pytest.approx(1.0, rel=0.05)
    assert registry.value("net.port.bytes_forwarded", node=1) == (
        registry.value("net.nic.bytes_sent", node=0))


def test_max_port_queue_tracked_in_snapshot():
    sim, switch, nics, registry = fabric(hosts=(0, 1, 2))
    # Two senders converge on port 2: its queue must grow.
    for _i in range(20):
        nics[0].send(frame(0, dst=2))
        nics[1].send(frame(1, dst=2))
    sim.run()
    nodes = registry.snapshot()["nodes"]
    assert nodes["2"]["net.port.max_queue_bytes"] > 0
    assert nodes["2"]["net.port.queued_bytes"] == 0  # drained by the end
    assert nodes["0"]["net.port.max_queue_bytes"] == 0
