"""Tests for frames, NIC, switch, and loss models."""

from dataclasses import replace
import pytest

from repro.net import (
    ETHERNET_MTU,
    GIGABIT,
    TEN_GIGABIT,
    WIRE_OVERHEAD,
    BernoulliLoss,
    Frame,
    Nic,
    SequenceLoss,
    Simulator,
    Switch,
    TargetedLoss,
    Timeout,
    Traffic,
    register_fabric_metrics,
)
from repro.obs import MetricsRegistry


def make_fabric(spec=GIGABIT, hosts=(0, 1, 2, 3)):
    """A switch with one NIC per host; received frames are logged."""
    sim = Simulator()
    switch = Switch(sim, spec)
    received = {h: [] for h in hosts}
    nics = {}
    for host in hosts:
        switch.attach(host, received[host].append)
        nics[host] = Nic(sim, host, spec, switch.receive)
    return sim, switch, nics, received


def data_frame(src, dst, size=1422, payload=None):
    return Frame(src=src, dst=dst, traffic=Traffic.DATA, size=size, payload=payload)


# ---------------------------------------------------------------------------
# Frame model
# ---------------------------------------------------------------------------

def test_small_datagram_is_one_fragment():
    frame = data_frame(0, 1, size=1422)
    assert frame.fragments == 1
    assert frame.wire == 1422 + WIRE_OVERHEAD


def test_large_datagram_fragments():
    # The paper's 8850-byte payload + headers spans multiple frames.
    frame = data_frame(0, None, size=8922)
    assert frame.fragments == -(-8922 // ETHERNET_MTU) == 6
    assert frame.wire == 8922 + 6 * WIRE_OVERHEAD


# ---------------------------------------------------------------------------
# Link presets
# ---------------------------------------------------------------------------

def test_serialization_delay_1g():
    # 1500 wire bytes at 1 Gbps = 12 microseconds.
    assert GIGABIT.serialization_s(1500) == pytest.approx(12e-6)


def test_serialization_delay_10g_is_ten_times_faster():
    ratio = GIGABIT.serialization_s(1500) / TEN_GIGABIT.serialization_s(1500)
    assert ratio == pytest.approx(10.0)


def test_latency_does_not_scale_with_rate():
    # The paper's core observation: 10G improved throughput 10x but
    # latency much less.  Our presets encode that.
    assert TEN_GIGABIT.propagation_s > GIGABIT.propagation_s / 10
    assert TEN_GIGABIT.switch_latency_s > GIGABIT.switch_latency_s / 10


def test_with_overrides_makes_copy():
    tweaked = replace(GIGABIT, port_buffer_bytes=1)
    assert tweaked.port_buffer_bytes == 1
    assert GIGABIT.port_buffer_bytes != 1


# ---------------------------------------------------------------------------
# NIC + switch forwarding
# ---------------------------------------------------------------------------

def test_unicast_reaches_only_destination():
    sim, switch, nics, received = make_fabric()
    nics[0].send(data_frame(0, 2))
    sim.run()
    assert len(received[2]) == 1
    assert not received[1] and not received[3] and not received[0]


def test_multicast_reaches_all_but_sender():
    sim, switch, nics, received = make_fabric()
    nics[1].send(data_frame(1, None))
    sim.run()
    assert not received[1]
    assert all(len(received[h]) == 1 for h in (0, 2, 3))


def test_end_to_end_latency_matches_model():
    sim, switch, nics, received = make_fabric()
    frame = data_frame(0, 1, size=1430)
    nics[0].send(frame)
    sim.run()
    wire = frame.wire
    expected = (
        GIGABIT.serialization_s(wire)      # host NIC clocks it out
        + GIGABIT.propagation_s            # host -> switch
        + GIGABIT.switch_latency_s         # forwarding
        + GIGABIT.serialization_s(wire)    # output port clocks it out
        + GIGABIT.propagation_s            # switch -> host
    )
    assert sim.now == pytest.approx(expected)


def test_port_fifo_no_reordering():
    sim, switch, nics, received = make_fabric()
    for i in range(10):
        nics[0].send(data_frame(0, 1, payload=i))
    sim.run()
    assert [f.payload for f in received[1]] == list(range(10))


def test_token_and_data_share_port_fifo():
    # Data sent before the token must arrive before it (same output
    # port) — the property the priority methods rely on.
    sim, switch, nics, received = make_fabric()
    nics[0].send(data_frame(0, None, payload="data"))
    nics[0].send(Frame(src=0, dst=1, traffic=Traffic.TOKEN, size=72, payload="tok"))
    sim.run()
    assert [f.payload for f in received[1]] == ["data", "tok"]


def test_switch_port_overflow_drops():
    tiny = replace(GIGABIT, port_buffer_bytes=3 * 1500)
    sim, switch, nics, received = make_fabric(spec=tiny, hosts=(0, 1))
    # Burst far beyond the port buffer: NIC drains at line rate into a
    # same-rate port, so the port can hold at most its buffer.
    for i in range(50):
        nics[0].send(data_frame(0, 1, payload=i))
    sim.run()
    port = switch.port(1)
    assert port.drops_overflow == 0  # same-rate in/out never overflows
    # Now two senders converging on one output port must overflow.
    sim, switch, nics, received = make_fabric(spec=tiny, hosts=(0, 1, 2))
    for i in range(50):
        nics[0].send(data_frame(0, 2, payload=("a", i)))
        nics[1].send(data_frame(1, 2, payload=("b", i)))
    sim.run()
    assert switch.port(2).drops_overflow > 0
    assert len(received[2]) + switch.port(2).drops_overflow == 100


def test_nic_overflow_drops_and_reports():
    tiny = replace(GIGABIT, nic_queue_bytes=2 * 1500)
    sim, switch, nics, received = make_fabric(spec=tiny, hosts=(0, 1))
    accepted = sum(nics[0].send(data_frame(0, 1)) for _ in range(10))
    assert accepted < 10
    assert nics[0].drops_overflow == 10 - accepted
    sim.run()
    assert len(received[1]) == accepted


def test_byte_conservation():
    sim, switch, nics, received = make_fabric()
    for i in range(20):
        nics[0].send(data_frame(0, None))
        nics[1].send(data_frame(1, 2))
    sim.run()
    registry = MetricsRegistry()
    register_fabric_metrics(registry, switch, nics.values())
    # Each multicast is forwarded to 3 ports, each unicast to 1.
    assert registry.total("net.nic.frames_sent") == 40
    assert registry.total("net.port.frames_forwarded") == 20 * 3 + 20
    assert switch.total_drops() == 0
    # The registry's byte views are the raw counters: every byte a NIC
    # sent was forwarded once per egress port it fanned out to.
    sent = [nics[h].bytes_sent for h in (0, 1)]
    forwarded = [switch.port(h).bytes_forwarded for h in switch.host_ids]
    assert registry.total("net.nic.bytes_sent") == sum(sent)
    assert registry.total("net.port.bytes_forwarded") == sum(forwarded)
    assert sum(forwarded) == 3 * sent[0] + sent[1]


def test_attach_duplicate_host_rejected():
    sim = Simulator()
    switch = Switch(sim, GIGABIT)
    switch.attach(1, lambda f: None)
    with pytest.raises(ValueError):
        switch.attach(1, lambda f: None)


def test_unknown_unicast_destination_raises():
    sim, switch, nics, _ = make_fabric(hosts=(0, 1))
    nics[0].send(data_frame(0, 99))
    with pytest.raises(ValueError):
        sim.run()


def test_max_queue_depth_tracked():
    sim, switch, nics, received = make_fabric(hosts=(0, 1, 2))
    for i in range(10):
        nics[0].send(data_frame(0, 2))
        nics[1].send(data_frame(1, 2))
    sim.run()
    assert switch.port(2).max_queue_bytes > 0


# ---------------------------------------------------------------------------
# Loss models
# ---------------------------------------------------------------------------

def test_bernoulli_loss_is_seeded_and_counted():
    a = BernoulliLoss(0.5, seed=7)
    b = BernoulliLoss(0.5, seed=7)
    frames = [data_frame(0, 1) for _ in range(100)]
    decisions_a = [a(f) for f in frames]
    decisions_b = [b(f) for f in frames]
    assert decisions_a == decisions_b
    assert a.dropped == sum(decisions_a) > 0


def test_bernoulli_can_spare_token():
    loss = BernoulliLoss(1.0, seed=1, spare_token=True)
    token = Frame(src=0, dst=1, traffic=Traffic.TOKEN, size=72, payload=None)
    assert not loss(token)
    assert loss(data_frame(0, 1))


def test_targeted_loss_max_drops():
    loss = TargetedLoss(lambda f: True, max_drops=2)
    frames = [data_frame(0, 1) for _ in range(5)]
    assert [loss(f) for f in frames] == [True, True, False, False, False]


def test_sequence_loss_drops_each_seq_once():
    class Seqish:
        def __init__(self, seq):
            self.seq = seq

    loss = SequenceLoss([5], times=1)
    first = data_frame(0, 1, payload=Seqish(5))
    again = data_frame(0, 1, payload=Seqish(5))
    other = data_frame(0, 1, payload=Seqish(6))
    assert loss(first)
    assert not loss(again)  # the retransmission gets through
    assert not loss(other)


def test_injected_loss_at_switch_port():
    sim = Simulator()
    switch = Switch(sim, GIGABIT)
    received = {0: [], 1: []}
    switch.attach(0, received[0].append)
    switch.attach(1, received[1].append, loss=lambda f: True)
    nic = Nic(sim, 0, GIGABIT, switch.receive)
    nic.send(data_frame(0, None))
    sim.run()
    assert received[1] == []
    assert switch.port(1).drops_injected == 1


# ---------------------------------------------------------------------------
# Bounded state: the transmit line's settle records
# ---------------------------------------------------------------------------

def test_lines_keep_records_only_for_frames_still_on_the_line():
    # Counters are settled lazily from per-frame records; with nobody
    # reading one, every admit must still trim them: state is O(frames on
    # the line), never O(frames ever sent).
    smallest = data_frame(0, 1, size=64).wire
    spec = replace(GIGABIT, nic_queue_bytes=8 * smallest,
                   port_buffer_bytes=8 * smallest)
    sim, switch, nics, received = make_fabric(spec=spec, hosts=(0, 1))
    nic, port = nics[0], switch.port(1)
    total = 50_000
    longest = [0, 0]

    def sender():
        sent = 0
        while sent < total:
            for _ in range(5):  # bursts, so frames queue behind each other
                sent += nic.send(data_frame(0, 1, size=64))
            longest[0] = max(longest[0], len(nic._line))
            longest[1] = max(longest[1], len(port._line))
            yield Timeout(5 * GIGABIT.serialization_s(smallest))

    sim.spawn(sender(), "sender")
    sim.run()
    # The buffer's worth of waiting frames, plus the one on the wire.
    assert 1 < longest[0] <= 8 + 1 and 1 <= longest[1] <= 8 + 1
    assert nic.frames_sent == port.frames_forwarded == total
    assert len(received[1]) == total
    assert not nic._line and not port._line  # a read settles the rest
