"""Malformed-datagram fuzzing: the decoder and a live ring under fire.

Three layers:

* property suite — arbitrary bytes and seeded mutations of valid frames
  must only ever produce ``DecodeError`` (never a crash, never a hang);
* transport layer — garbage aimed at a bound transport's sockets is
  counted and dropped, with exact counters;
* live daemon — ISSUE acceptance: ≥1000 malformed/truncated datagrams
  sprayed into a running ring's sockets cause zero crashes, accurate
  drop counters, and the ring keeps ordering messages afterwards.
"""

import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Service
from repro.emulation import EmulatedRing
from repro.emulation.transport import MAX_DATAGRAM, UdpTransport
from repro.wire import codec, fuzz

from helpers import receive

EXAMPLES = settings(
    max_examples=int(os.environ.get("REPRO_WIRE_EXAMPLES", "25")),
    deadline=None,
)


# -- decoder properties ------------------------------------------------------

def _rejection(decoder, blob):
    """The DecodeError text ``decoder`` raises on ``blob``; None if it
    accepts.  Anything but DecodeError propagates and fails the test."""
    try:
        decoder(blob)
    except codec.DecodeError as exc:
        return str(exc)
    return None


def clean_and_consistent(blob):
    """Strict decoding fails cleanly, and ``decode_detail`` rejects
    exactly what ``decode`` rejects, in the same words."""
    return fuzz.is_clean_failure(blob) and (
        _rejection(codec.decode_detail, blob)
        == _rejection(codec.decode, blob)
    )


@EXAMPLES
@given(blob=st.binary(max_size=512))
def test_arbitrary_bytes_never_crash_the_decoder(blob):
    assert clean_and_consistent(blob)


@EXAMPLES
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_mutated_valid_frames_never_crash_the_decoder(seed):
    for blob in fuzz.corpus(seed, 40):
        assert clean_and_consistent(blob)


@EXAMPLES
@given(blob=st.binary(min_size=codec.HEADER_SIZE, max_size=256),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_mutator_is_crash_free(blob, seed):
    import random

    rng = random.Random(seed)
    for mutator in fuzz.MUTATORS:
        assert clean_and_consistent(mutator(blob, rng))


def test_corpus_is_deterministic_and_fully_rejected():
    first = fuzz.corpus(7, 200)
    assert first == fuzz.corpus(7, 200)
    assert len(first) == 200
    for blob in first:
        with pytest.raises(codec.DecodeError):
            codec.decode(blob)


# -- transport counters (single transport, no threads) -----------------------

def _await_drops(get_count, expected, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if get_count() >= expected:
            return get_count()
        time.sleep(0.01)
    return get_count()


def test_transport_counts_malformed_and_oversize_drops():
    transport = UdpTransport(pid=0)
    try:
        blobs = fuzz.corpus(seed=3, count=40)
        fuzz.spray(transport.host, [transport.ports.data_port], blobs[:20])
        fuzz.spray(transport.host, [transport.ports.token_port], blobs[20:])
        # One datagram past MAX_DATAGRAM: counted as oversize, not parsed.
        fuzz.spray(transport.host, [transport.ports.data_port],
                   [b"\x00" * (MAX_DATAGRAM + 1)])
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            data, tokens = receive(transport, 0.05)
            assert data == [] and tokens == []
            if transport.datagrams_dropped >= 41:
                break
        assert transport.drops_malformed == 40
        assert transport.drops_oversize == 1
        assert transport.datagrams_received == 0
        assert transport.last_decode_error
    finally:
        transport.close()


def test_transport_rejects_wrong_type_on_each_socket():
    from repro.core import Token
    from repro.core.messages import DataMessage

    transport = UdpTransport(pid=0)
    try:
        token_blob = codec.encode(Token(ring_id=1))
        data_blob = codec.encode(DataMessage(
            seq=1, pid=9, round=1, service=Service.AGREED,
            payload=b"x", payload_size=1, submitted_at=None))
        # Well-formed frames aimed at the wrong socket are violations too.
        fuzz.spray(transport.host, [transport.ports.data_port], [token_blob])
        fuzz.spray(transport.host, [transport.ports.token_port], [data_blob])
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            data, tokens = receive(transport, 0.05)
            assert data == [] and tokens == []
            if transport.drops_malformed >= 2:
                break
        assert transport.drops_malformed == 2
        assert "socket" in transport.last_decode_error
    finally:
        transport.close()


# -- the live-daemon spray (ISSUE acceptance criterion) ----------------------

def test_live_ring_survives_thousand_malformed_datagrams():
    """≥1000 garbage datagrams into a live ring: zero crashes, exact
    drop counters, and total order still delivered afterwards."""
    n_nodes = 3
    corpus = fuzz.corpus(seed=11, count=1002)
    assert len(corpus) >= 1000
    with EmulatedRing(n_nodes) as ring:
        # Warm up: the ring orders traffic before, during and after.
        for pid in range(n_nodes):
            ring.submit(pid, ("pre", pid), Service.AGREED)
        ring.collect_deliveries(expected_per_node=n_nodes, timeout_s=20.0)

        ports = []
        for node in ring.nodes.values():
            ports.append(node.transport.ports.data_port)
            ports.append(node.transport.ports.token_port)
        sent = fuzz.spray("127.0.0.1", ports, corpus)
        assert sent == len(corpus)
        # A few oversized datagrams on top, one per node's data socket.
        oversize = [b"\xff" * (MAX_DATAGRAM + 7)] * n_nodes
        fuzz.spray("127.0.0.1",
                   [n.transport.ports.data_port for n in ring.nodes.values()],
                   oversize)

        def dropped():
            report = ring.drop_report()
            return sum(r["malformed"] + r["oversize"] for r in report.values())

        total = _await_drops(dropped, len(corpus) + n_nodes, timeout_s=15.0)
        report = ring.drop_report()
        # Every sprayed datagram is accounted for as a drop — none were
        # parsed into the protocol, none vanished uncounted.
        assert sum(r["malformed"] for r in report.values()) == len(corpus)
        assert sum(r["oversize"] for r in report.values()) == n_nodes
        assert total == len(corpus) + n_nodes

        # Zero crashes: the ring's loop is still running, and no node
        # raised.
        assert ring.thread.is_alive()
        assert all(node.error is None for node in ring.nodes.values())

        # And the ring still totally orders new traffic.
        for pid in range(n_nodes):
            for i in range(3):
                ring.submit(pid, ("post", pid, i), Service.AGREED)
        # collect_deliveries drains only fresh messages: just the posts.
        delivered = ring.collect_deliveries(
            expected_per_node=3 * n_nodes, timeout_s=20.0
        )
        orders = {
            pid: [m.payload for m in msgs if m.payload[0] == "post"]
            for pid, msgs in delivered.items()
        }
        reference = next(iter(orders.values()))
        assert len(reference) == 3 * n_nodes
        for order in orders.values():
            assert order == reference
