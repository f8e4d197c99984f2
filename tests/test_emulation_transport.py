"""Unit tests for the UDP transport (no protocol, just datagrams)."""

import pytest

from repro.core import Service, Token
from repro.core.messages import DataMessage
from repro.emulation import PortPair, UdpTransport

from helpers import receive


@pytest.fixture
def pair():
    a = UdpTransport(0)
    b = UdpTransport(1)
    peers = {0: a.ports, 1: b.ports}
    a.set_peers(peers)
    b.set_peers(peers)
    yield a, b
    a.close()
    b.close()


def drain(transport, timeout=0.5):
    import time

    deadline = time.monotonic() + timeout
    data, tokens = [], []
    while time.monotonic() < deadline:
        d, t = receive(transport, 0.01)
        data.extend(d)
        tokens.extend(t)
        if data or tokens:
            break
    return data, tokens


def test_ports_allocated_distinct(pair):
    a, b = pair
    assert a.ports.data_port != a.ports.token_port
    assert a.ports.data_port != b.ports.data_port


def test_data_fanout_reaches_peer_not_self(pair):
    a, b = pair
    message = DataMessage(seq=1, pid=0, round=1, service=Service.AGREED,
                          payload=b"hi")
    a.send_data(message)
    data, tokens = drain(b)
    assert len(data) == 1 and data[0].seq == 1
    assert tokens == []
    own_data, _ = receive(a, 0.05)
    assert own_data == []  # no loopback to self


def test_token_goes_to_token_socket(pair):
    a, b = pair
    a.send_token(Token(hop=3), dst=1)
    data, tokens = drain(b)
    assert data == []
    assert len(tokens) == 1 and tokens[0].hop == 3


def test_loss_rule_applies_per_destination(pair):
    a, b = pair
    a.set_loss_rule(lambda kind, obj, dst: kind == "data")
    a.send_data(DataMessage(seq=1, pid=0, round=1, service=Service.AGREED))
    a.send_token(Token(hop=1), dst=1)
    data, tokens = drain(b)
    assert data == []
    assert len(tokens) == 1


def test_datagram_counters(pair):
    a, b = pair
    a.send_data(DataMessage(seq=1, pid=0, round=1, service=Service.AGREED))
    drain(b)
    assert a.datagrams_sent == 1
    assert b.datagrams_received == 1


def test_oversized_datagram_rejected(pair):
    a, _b = pair
    huge = DataMessage(seq=1, pid=0, round=1, service=Service.AGREED,
                       payload=b"x" * 100_000)
    with pytest.raises(ValueError):
        a.send_data(huge)


def test_drain_of_an_idle_socket_returns_empty(pair):
    # The ring's loop drains only what select found readable; a drain
    # that finds nothing returns at once instead of blocking.
    a, _b = pair
    data_sock, token_sock = a.sockets
    assert a.drain(data_sock) == [] and a.drain(token_sock) == []
    assert a.datagrams_received == 0


def test_oversized_error_names_type_and_size(pair):
    from repro.emulation import OversizedDatagramError

    a, _b = pair
    huge = DataMessage(seq=1, pid=0, round=1, service=Service.AGREED,
                       payload=b"x" * 100_000)
    with pytest.raises(OversizedDatagramError) as excinfo:
        a.send_data(huge)
    assert "DataMessage" in str(excinfo.value)
    assert str(excinfo.value.encoded_size) in str(excinfo.value)
    assert a.datagrams_sent == 0  # nothing was put on the wire


def test_large_valid_datagram_arrives_untruncated(pair):
    # Close to MAX_DATAGRAM but valid: must arrive byte-for-byte (the
    # receive buffer is sized so the kernel can never silently truncate).
    a, b = pair
    payload = bytes(range(256)) * 200  # 51200 bytes
    message = DataMessage(seq=2, pid=0, round=1, service=Service.AGREED,
                          payload=payload, payload_size=len(payload))
    a.send_data(message)
    data, _ = drain(b, timeout=2.0)
    assert len(data) == 1
    assert data[0].payload == payload
    assert b.datagrams_dropped == 0


def test_wire_bytes_are_codec_frames_not_pickle(pair):
    import socket

    a, _b = pair
    sniffer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sniffer.bind(("127.0.0.1", 0))
    sniffer.settimeout(2.0)
    try:
        a.set_peers({0: a.ports, 9: PortPair(sniffer.getsockname()[1],
                                             sniffer.getsockname()[1])})
        a.ring_id = 5
        a.send_data(DataMessage(seq=3, pid=0, round=1,
                                service=Service.AGREED, payload=b"raw"))
        blob, _addr = sniffer.recvfrom(65_535)
    finally:
        sniffer.close()
    from repro.wire.codec import decode_detail

    assert blob[:2] == b"AR"  # wire magic, not a pickle opcode
    decoded = decode_detail(blob)
    assert decoded.kind == "data"
    assert decoded.ring_id == 5  # transport stamps its configuration id
    assert decoded.message.payload == b"raw"


def test_malformed_datagrams_counted_not_raised(pair):
    import socket

    a, _b = pair
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sender.sendto(b"\x00garbage", ("127.0.0.1", a.ports.data_port))
        sender.sendto(b"", ("127.0.0.1", a.ports.token_port))
    finally:
        sender.close()
    import time

    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline and a.drops_malformed < 2:
        data, tokens = receive(a, 0.05)
        assert data == [] and tokens == []
    assert a.drops_malformed == 2
    assert a.datagrams_dropped == 2
    assert a.last_decode_error


# -- fan-out, loss rule and capture, per destination --------------------------

@pytest.fixture
def trio():
    transports = [UdpTransport(pid) for pid in range(3)]
    peers = {t.pid: t.ports for t in transports}
    for transport in transports:
        transport.set_peers(peers)
    yield transports
    for transport in transports:
        transport.close()


def message(seq):
    return DataMessage(seq=seq, pid=0, round=1, service=Service.AGREED,
                       payload=b"m%d" % seq)


def test_set_peers_again_rebuilds_the_fanout(trio):
    a, b, c = trio
    a.send_data(message(1))
    assert [m.seq for m in drain(b)[0]] == [1]
    assert [m.seq for m in drain(c)[0]] == [1]
    assert a.datagrams_sent == 2
    # Node 2 leaves: the next multicast must not reach it.
    a.set_peers({0: a.ports, 1: b.ports})
    a.send_data(message(2))
    assert [m.seq for m in drain(b)[0]] == [2]
    assert receive(c, 0.05) == ([], [])
    assert a.datagrams_sent == 3


def test_loss_rule_sees_each_destination_and_drops_are_not_counted(trio):
    a, b, c = trio
    asked = []

    def rule(kind, obj, dst):
        asked.append((kind, obj, dst))
        return dst == 1

    a.set_loss_rule(rule)
    sent = message(1)
    a.send_data(sent)
    token = Token(hop=4)
    a.send_token(token, dst=1)
    a.send_token(token, dst=2)
    assert asked == [("data", sent, 1), ("data", sent, 2),
                     ("token", token, 1), ("token", token, 2)]
    assert a.datagrams_sent == 2  # one data copy and one token got out
    data, tokens = drain(c)
    assert [m.seq for m in data] == [1]
    if not tokens:
        tokens = drain(c)[1]
    assert [t.hop for t in tokens] == [4]
    assert receive(b, 0.05) == ([], [])
    # Lifting the rule restores the plain fan-out.
    a.set_loss_rule(None)
    a.send_data(message(2))
    assert [m.seq for m in drain(b)[0]] == [2]
    assert a.datagrams_sent == 4


def test_capture_records_one_per_logical_multicast(trio):
    a, _b, _c = trio
    records = []

    class Writer:
        def write(self, t, src, dst, traffic, blob):
            records.append((src, dst, traffic, blob))

    a.set_capture(Writer())
    a.send_data(message(1))
    a.send_token(Token(hop=2), dst=1)
    assert a.datagrams_sent == 3  # two fan-out copies and the token
    from repro.wire.capture import TRAFFIC_DATA, TRAFFIC_TOKEN
    from repro.wire.codec import decode

    assert [(src, dst, traffic) for src, dst, traffic, _ in records] == [
        (0, None, TRAFFIC_DATA), (0, 1, TRAFFIC_TOKEN)]
    assert decode(records[0][3]).seq == 1


def test_jumbo_on_token_socket_is_a_wrong_socket_drop(trio):
    import socket

    from repro.core import JumboDatagram
    from repro.wire.codec import encode

    a, _b, _c = trio
    blob = encode(JumboDatagram((message(1), message(2))))
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sender.sendto(blob, ("127.0.0.1", a.ports.token_port))
        sender.sendto(blob, ("127.0.0.1", a.ports.data_port))
    finally:
        sender.close()
    data, tokens = [], []
    import time

    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline and not (data and a.drops_malformed):
        fresh_data, fresh_tokens = receive(a, 0.05)
        data.extend(fresh_data)
        tokens.extend(fresh_tokens)
    # Accepted as two messages where data is, refused where tokens are.
    assert [m.seq for m in data] == [1, 2] and tokens == []
    assert a.datagrams_received == 1 and a.drops_malformed == 1
    assert "token socket" in a.last_decode_error
