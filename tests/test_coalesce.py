"""Jumbo-datagram coalescing: grouping, wire framing, end-to-end equivalence."""

import struct

import pytest

from repro.core import (
    DEFAULT_JUMBO_BYTES,
    JUMBO_ENTRY_BYTES,
    ConfigurationError,
    DataMessage,
    JumboDatagram,
    ProtocolConfig,
    Service,
    coalesce,
)
from repro.core.coalesce import JUMBO_COUNT_BYTES, datagram_size, header_bytes_saved
from repro.wire import codec

from helpers import receive


def data(seq, size=100, payload=b"x"):
    return DataMessage(seq=seq, pid=1, round=1, service=Service.AGREED,
                       payload=payload * size, payload_size=size)


# ---------------------------------------------------------------------------
# coalesce() grouping
# ---------------------------------------------------------------------------

def test_greedy_grouping_respects_cap():
    # header 12 + count 4 + 3 * (5 + 100) = 331 <= 350; a fourth packet
    # would need 331 + 105 = 436 > 350, so groups split 3 + 2.
    packets = [("p%d" % i, 100) for i in range(5)]
    groups = coalesce(packets, cap_bytes=350, header_bytes=12)
    assert [[p for p in g] for g, _ in groups] == [
        ["p0", "p1", "p2"], ["p3", "p4"],
    ]
    assert groups[0][1] == 12 + 4 + 3 * 105
    assert groups[1][1] == 12 + 4 + 2 * 105


def test_singleton_reports_plain_datagram_size():
    groups = coalesce([("only", 500)], cap_bytes=8850, header_bytes=12)
    assert groups == [(["only"], 512)]  # header + payload, no jumbo framing


def test_oversized_packet_travels_alone():
    packets = [("big", 99_999), ("small", 10)]
    groups = coalesce(packets, cap_bytes=1000, header_bytes=12)
    assert [p for g, _ in groups for p in g] == ["big", "small"]
    assert groups[0][1] == 12 + 99_999  # its real, over-cap plain size


def test_packet_exactly_filling_cap_is_included():
    # 12 + 4 + 2 * (5 + 100) == 226: the bound is inclusive.
    groups = coalesce([("a", 100), ("b", 100)], cap_bytes=226, header_bytes=12)
    assert len(groups) == 1 and groups[0][1] == 226


def test_datagram_size_and_header_saving_agree():
    header = 150
    sizes = [100, 200, 300]
    jumbo = datagram_size(sizes, header)
    plain = sum(header + s for s in sizes)
    assert plain - jumbo == header_bytes_saved(len(sizes), header)
    assert header_bytes_saved(1, header) < 0  # why singletons go plain


def test_jumbo_datagram_value_object():
    messages = (data(1), data(2, size=50))
    jumbo = JumboDatagram(messages)
    assert len(jumbo) == 2
    assert jumbo.payload_size == 150
    assert jumbo == JumboDatagram(messages)
    assert jumbo != JumboDatagram((data(1),))
    assert hash(jumbo) == hash(JumboDatagram(messages))


def test_config_validates_jumbo_bytes():
    assert ProtocolConfig().jumbo_datagram_bytes is None
    ProtocolConfig(jumbo_datagram_bytes=DEFAULT_JUMBO_BYTES)  # fine
    with pytest.raises(ConfigurationError):
        ProtocolConfig(jumbo_datagram_bytes=0)


# ---------------------------------------------------------------------------
# wire framing
# ---------------------------------------------------------------------------

def test_wire_roundtrip():
    messages = tuple(data(seq, size=40 + seq) for seq in range(1, 6))
    blob = codec.encode(JumboDatagram(messages), ring_id=7)
    out = codec.decode(blob)
    assert out == JumboDatagram(messages)
    detail = codec.decode_detail(blob)
    assert detail.kind == "jumbo"
    assert detail.ring_id == 7


def test_wire_size_matches_coalesce_model():
    # The byte model coalesce() plans with must equal what the codec
    # actually emits, else the planner would overshoot the cap.
    messages = tuple(data(seq, size=100) for seq in range(1, 4))
    blob = codec.encode(JumboDatagram(messages))
    plain = sum(codec.encoded_size(m) for m in messages)
    bodies = [codec.encoded_size(m) - codec.HEADER_SIZE for m in messages]
    assert len(blob) == datagram_size(bodies, codec.HEADER_SIZE)
    assert plain - len(blob) == header_bytes_saved(
        len(messages), codec.HEADER_SIZE)


def test_empty_jumbo_rejected_both_directions():
    with pytest.raises(codec.EncodeError):
        codec.encode(JumboDatagram(()))
    body = struct.pack("<I", 0)
    blob = codec._frame(codec.TYPE_JUMBO, body)
    with pytest.raises(codec.DecodeError, match="empty jumbo"):
        codec.decode(blob)


def test_only_data_packets_coalesce():
    from repro.core import initial_token
    with pytest.raises(codec.EncodeError, match="only data packets"):
        codec._encode_jumbo_body((data(1), initial_token()), 0)
    # And on the wire: an inner token entry is rejected outright.
    token_body = codec._encode_token_body(initial_token())
    body = struct.pack("<I", 1) + struct.pack(
        "<BI", codec.TYPE_TOKEN, len(token_body)) + token_body
    blob = codec._frame(codec.TYPE_JUMBO, body)
    with pytest.raises(codec.DecodeError, match="only data packets"):
        codec.decode(blob)


def test_crafted_count_cannot_overrun():
    # A count far past what the body could hold must fail fast, before
    # any per-entry work.
    body = struct.pack("<I", 0xFFFFFFFF)
    blob = codec._frame(codec.TYPE_JUMBO, body)
    with pytest.raises(codec.DecodeError, match="exceeds datagram capacity"):
        codec.decode(blob)


def test_entry_length_cannot_overrun():
    inner = codec._encode_data_body(data(1), 0)
    body = struct.pack("<I", 1) + struct.pack(
        "<BI", codec.TYPE_DATA, len(inner) + 50) + inner
    blob = codec._frame(codec.TYPE_JUMBO, body)
    with pytest.raises(codec.DecodeError, match="overruns"):
        codec.decode(blob)


def test_trailing_bytes_rejected():
    inner = codec._encode_data_body(data(1), 0)
    body = struct.pack("<I", 1) + struct.pack(
        "<BI", codec.TYPE_DATA, len(inner)) + inner + b"xx"
    blob = codec._frame(codec.TYPE_JUMBO, body)
    with pytest.raises(codec.DecodeError, match="trailing"):
        codec.decode(blob)


def test_nested_jumbo_rejected():
    inner_jumbo = codec.encode(JumboDatagram((data(1),)))
    inner_body = inner_jumbo[codec.HEADER_SIZE:]
    body = struct.pack("<I", 1) + struct.pack(
        "<BI", codec.TYPE_JUMBO, len(inner_body)) + inner_body
    blob = codec._frame(codec.TYPE_JUMBO, body)
    with pytest.raises(codec.DecodeError, match="only data packets"):
        codec.decode(blob)


# ---------------------------------------------------------------------------
# simulated ring: coalescing must not change protocol behaviour
# ---------------------------------------------------------------------------

def _run_sim(jumbo_bytes):
    from repro.net import GIGABIT
    from repro.sim import SPREAD, SimCluster

    delivered = {}
    config = ProtocolConfig(
        accelerated_window=20, jumbo_datagram_bytes=jumbo_bytes)
    cluster = SimCluster(
        4, GIGABIT, SPREAD, config, seed=1,
        deliver_callback=lambda pid, m: delivered.setdefault(
            pid, []).append(m.seq))
    cluster.inject_at_rate(600e6, duration_s=0.03)
    result = cluster.run(0.03, warmup_s=0.005, offered_bps=600e6)
    return delivered, result


def test_sim_total_order_identical_with_and_without_jumbo():
    d_off, r_off = _run_sim(None)
    d_on, r_on = _run_sim(DEFAULT_JUMBO_BYTES)
    for pid in d_off:
        shortest = min(len(d_off[pid]), len(d_on[pid]))
        assert shortest > 100
        assert d_off[pid][:shortest] == d_on[pid][:shortest]
    assert r_on.achieved_bps == pytest.approx(r_off.achieved_bps, rel=0.05)
    assert r_on.switch_drops == 0 and r_on.socket_drops == 0


def test_sim_jumbo_reduces_datagram_count():
    from repro.net import GIGABIT
    from repro.sim import SPREAD, SimCluster

    def count_frames(jumbo_bytes):
        config = ProtocolConfig(
            accelerated_window=20, jumbo_datagram_bytes=jumbo_bytes)
        cluster = SimCluster(4, GIGABIT, SPREAD, config, seed=1)
        cluster.inject_at_rate(900e6, duration_s=0.02)
        cluster.run(0.02, warmup_s=0.0, offered_bps=900e6)
        return sum(n.nic.frames_sent for n in cluster.nodes.values())

    plain = count_frames(None)
    jumbo = count_frames(DEFAULT_JUMBO_BYTES)
    # Tokens count equally in both runs, so the drop is all coalescing.
    assert jumbo < plain * 0.7


# ---------------------------------------------------------------------------
# emulated ring: jumbos over real UDP sockets
# ---------------------------------------------------------------------------

def test_emulated_ring_with_jumbo_preserves_total_order():
    from repro.emulation import EmulatedRing

    config = ProtocolConfig(
        accelerated_window=10, personal_window=20,
        jumbo_datagram_bytes=DEFAULT_JUMBO_BYTES)
    with EmulatedRing(3, config) as ring:
        for pid in (0, 1, 2):
            for i in range(40):
                ring.submit(pid, ("m", pid, i))
        got = ring.collect_deliveries(120, timeout_s=20.0)
    payloads = {p: [m.payload for m in msgs] for p, msgs in got.items()}
    assert payloads[0] == payloads[1] == payloads[2]
    assert len(payloads[0]) == 120
    assert sum(n.transport.datagrams_dropped
               for n in ring.nodes.values()) == 0


def test_transport_batch_send_and_drain(free_ports=None):
    from repro.emulation.transport import PortPair, UdpTransport

    sender = UdpTransport(pid=0)
    receiver = UdpTransport(pid=1)
    peers = {0: sender.ports, 1: receiver.ports}
    sender.set_peers(peers)
    receiver.set_peers(peers)
    try:
        messages = [data(seq, size=200) for seq in range(1, 8)]
        sender.send_data_batch(messages, jumbo_cap=700)
        got = []
        deadline = 50
        while len(got) < len(messages) and deadline:
            fresh, _tokens = receive(receiver, 0.05)
            got.extend(fresh)
            deadline -= 1
        assert got == messages  # same messages, same order, via jumbos
        assert receiver.drops_malformed == 0
        # 700-byte cap, ~272-byte frames: strictly fewer datagrams than
        # messages reached the socket.
        assert receiver.datagrams_received < len(messages)
    finally:
        sender.close()
        receiver.close()


# ---------------------------------------------------------------------------
# capture analyzer: coalescing statistics
# ---------------------------------------------------------------------------

def test_capture_summary_reports_coalescing(tmp_path):
    from repro.wire.capture import TRAFFIC_DATA, WORLD_SIM, CaptureWriter
    from repro.wire.analyzer import render_summary, summarize_capture

    path = str(tmp_path / "jumbo.rcap")
    with CaptureWriter(path, WORLD_SIM, label="coalesce test") as writer:
        writer.write_message(0.0, 0, None, TRAFFIC_DATA,
                             JumboDatagram((data(1), data(2), data(3))))
        writer.write_message(0.1, 0, None, TRAFFIC_DATA,
                             JumboDatagram((data(4), data(5))))
        writer.write_message(0.2, 1, None, TRAFFIC_DATA, data(6))

    summary = summarize_capture(path)
    assert summary["records_by_kind"] == {"data": 1, "jumbo": 2}
    assert summary["jumbo_datagrams"] == 2
    assert summary["jumbo_packets"] == 5
    # Two jumbos of 3 and 2 packets, 12-byte outer headers:
    assert summary["jumbo_header_bytes_saved"] == (
        header_bytes_saved(3, codec.HEADER_SIZE)
        + header_bytes_saved(2, codec.HEADER_SIZE)
    )
    rendered = "\n".join(render_summary(path))
    assert "5 packet(s) in 2 jumbo datagram(s)" in rendered
    assert "2.50 per jumbo" in rendered


def test_capture_summary_no_jumbos_stays_quiet(tmp_path):
    from repro.wire.capture import TRAFFIC_DATA, WORLD_SIM, CaptureWriter
    from repro.wire.analyzer import render_summary, summarize_capture

    path = str(tmp_path / "plain.rcap")
    with CaptureWriter(path, WORLD_SIM) as writer:
        writer.write_message(0.0, 0, None, TRAFFIC_DATA, data(1))

    summary = summarize_capture(path)
    assert summary["jumbo_datagrams"] == 0
    assert "coalescing" not in "\n".join(render_summary(path))
