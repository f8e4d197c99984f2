"""Size-model drift guard: the sim's byte constants vs the real codec.

The figure benchmarks charge ``TOKEN_BASE_SIZE + 4/rtr`` per token and
``payload_size + header_bytes`` per data message.  These used to be
hand-set constants; now they must equal, byte for byte, what
:mod:`repro.wire.codec` actually puts on the wire — so the simulated
figures measure the datagrams a real deployment would send.  If the
wire format changes without the model (or vice versa), this file fails.
"""

from dataclasses import replace

import pytest

from repro.core import JumboDatagram, ProtocolConfig, Token
from repro.core.coalesce import FRAME_HEADER_BYTES
from repro.core.messages import (
    DATA_HEADER_SIZE,
    DataMessage,
    TOKEN_BASE_SIZE,
    TOKEN_RTR_ENTRY_SIZE,
)
from repro.core.config import Service
from repro.net import GIGABIT, Frame, Traffic
from repro.sim import DAEMON, LIBRARY, SPREAD
from repro.sim.cluster import SimCluster
from repro.sim.node import SimNode
from repro.wire import codec


def test_token_base_size_matches_codec():
    assert codec.encoded_size(Token()) == TOKEN_BASE_SIZE


def test_token_rtr_entry_growth_matches_codec():
    base = codec.encoded_size(Token())
    for count in (1, 2, 7, 100):
        token = Token(rtr=tuple(range(1, count + 1)))
        assert codec.encoded_size(token) == base + count * TOKEN_RTR_ENTRY_SIZE


def test_token_size_property_matches_codec_exactly():
    # Token.size is what SimNode stamps on token frames.
    for token in (
        Token(),
        Token(ring_id=9, hop=1_000_000, seq=2 ** 40, aru=2 ** 40 - 5,
              aru_id=7, fcc=3, rtr=(1, 2, 3)),
        Token(rtr=tuple(range(500))),
    ):
        assert token.size == codec.encoded_size(token)


def test_data_header_overhead_matches_codec():
    assert codec.DATA_HEADER_SIZE == DATA_HEADER_SIZE
    for size in (0, 1, 1350, 8850):
        message = DataMessage(seq=1, pid=0, round=1, service=Service.AGREED,
                              payload=b"x" * size, payload_size=size,
                              submitted_at=0.125)
        assert codec.encoded_size(message) == size + DATA_HEADER_SIZE


def test_library_profile_charges_the_real_wire_header():
    # The library implementation *is* this repo's wire format: the frame
    # size the simulator charges equals the encoded datagram size.
    assert LIBRARY.header_bytes == DATA_HEADER_SIZE


def test_daemon_and_spread_profiles_stay_above_the_wire_floor():
    # Their extra header bytes model IPC / group-name overhead on top of
    # the physical wire framing; they can never be thinner than the
    # codec's actual framing.
    assert DAEMON.header_bytes >= DATA_HEADER_SIZE
    assert SPREAD.header_bytes >= DATA_HEADER_SIZE


def test_sim_frame_sizes_cross_validate_against_codec():
    """Frames exactly as SimNode builds them, checked against encode()."""
    payload_size = 1350
    message = DataMessage(seq=4, pid=1, round=3, service=Service.AGREED,
                          payload=b"p" * payload_size,
                          payload_size=payload_size, submitted_at=0.5)
    data_frame = Frame(src=1, dst=None, traffic=Traffic.DATA,
                       size=payload_size + LIBRARY.header_bytes,
                       payload=message)
    assert data_frame.size == codec.encoded_size(message)

    token = Token(ring_id=0, hop=11, seq=44, aru=40, aru_id=2, fcc=4,
                  rtr=(41, 42))
    token_frame = Frame(src=1, dst=2, traffic=Traffic.TOKEN,
                        size=token.size, payload=token)
    assert token_frame.size == codec.encoded_size(token)


def test_frame_header_bytes_matches_codec():
    assert FRAME_HEADER_BYTES == codec.HEADER_SIZE


def test_coalesced_datagram_size_matches_codec(monkeypatch):
    """Datagrams exactly as the driver sizes them for a LIBRARY ring
    coalescing five 1,350-byte packets, checked against encode()."""
    batches = []
    multicast_batch = SimNode.multicast_batch

    def record(node, messages, datagram_bytes):
        batches.append((tuple(messages), datagram_bytes))
        multicast_batch(node, messages, datagram_bytes)

    monkeypatch.setattr(SimNode, "multicast_batch", record)
    config = ProtocolConfig.accelerated(accelerated_window=20,
                                        jumbo_datagram_bytes=7100)
    cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=1)
    cluster.inject_at_rate(900e6, duration_s=0.02)
    cluster.run(0.02, warmup_s=0.0, offered_bps=900e6)
    fives = [batch for batch in batches if len(batch[0]) == 5]
    assert fives  # the run coalesced
    messages, datagram_bytes = fives[0]
    # The bytes a real deployment sends: a raw payload of the same size.
    on_wire = tuple(replace(m, payload=b"p" * m.payload_size)
                    for m in messages)
    assert datagram_bytes == len(codec.encode(JumboDatagram(on_wire)))


def test_oversize_rtr_entry_fails_encode_rather_than_lying():
    # The size model says 4 bytes per rtr entry; an entry that cannot fit
    # in 4 bytes must be an error, not a silently wider encoding.
    with pytest.raises(codec.EncodeError):
        codec.encode(Token(rtr=(codec.MAX_RTR_SEQ + 1,)))
