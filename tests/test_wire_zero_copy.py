"""Regression tests pinning the decode path's zero-copy contract.

The decoder must never materialize the whole datagram (``bytes(blob)``)
nor slice off a full-body copy for the CRC check — those were the two
copies that made decode 2.5x slower than encode before the rewrite.
The only permitted copy is the payload slice of a raw-payload data
message (the payload must outlive the receive buffer).

The tracking is done with a ``bytes`` subclass because ``memoryview``
cannot be subclassed: every slice and every whole-buffer
materialization on the input is recorded, and the tests assert the
exact allowed set.
"""

import pytest

from repro.core import Service, Token
from repro.core.messages import DataMessage
from repro.wire import codec
from repro.wire.codec import DecodeError, decode, decode_detail, encode


class TrackingBytes(bytes):
    """A bytes buffer that records copies taken from it.

    ``struct.unpack_from``, ``zlib.crc32`` and ``memoryview`` all read
    through the buffer protocol without touching these hooks, so any
    recorded event is a genuine Python-level copy of buffer content.
    """

    def __new__(cls, data):
        self = super().__new__(cls, data)
        self.slices = []
        self.materializations = 0
        return self

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices.append((key.start, key.stop))
        return bytes.__getitem__(self, key)

    def __bytes__(self):
        self.materializations += 1
        return bytes(memoryview(self))


def tracked(message, **kw):
    return TrackingBytes(encode(message, **kw))


def data_message(**overrides):
    fields = dict(seq=7, pid=2, round=9, service=Service.AGREED,
                  payload=b"payload-bytes", payload_size=13, submitted_at=1.5)
    fields.update(overrides)
    return DataMessage(**fields)


PAYLOAD_OFFSET = codec.HEADER_SIZE + codec._DATA_BODY.size


def test_data_decode_copies_only_the_payload():
    blob = tracked(data_message())
    message = decode(blob)
    assert message == data_message()
    # Exactly one slice — the payload — and no whole-frame materialization.
    assert blob.slices == [(PAYLOAD_OFFSET, len(blob))]
    assert blob.materializations == 0


def test_payload_is_an_independent_plain_bytes():
    blob = tracked(data_message())
    payload = decode(blob).payload
    assert type(payload) is bytes  # not TrackingBytes, not memoryview
    assert payload == b"payload-bytes"


def test_token_decode_is_fully_zero_copy():
    blob = tracked(Token(ring_id=6, hop=41, seq=1000, aru=990, aru_id=3,
                         fcc=17, rtr=(991, 995, 999)))
    assert decode(blob) == Token(ring_id=6, hop=41, seq=1000, aru=990,
                                 aru_id=3, fcc=17, rtr=(991, 995, 999))
    assert blob.slices == []
    assert blob.materializations == 0


def test_payload_less_data_decode_is_fully_zero_copy():
    blob = tracked(data_message(payload=None, payload_size=0))
    assert decode(blob).payload is None
    assert blob.slices == []
    assert blob.materializations == 0


def test_decode_detail_is_zero_copy_on_the_error_path():
    corrupted = bytearray(encode(data_message()))
    corrupted[-1] ^= 0x01  # break the body under the recorded CRC
    blob = TrackingBytes(bytes(corrupted))
    with pytest.raises(DecodeError, match="CRC"):
        decode_detail(blob)
    assert blob.slices == []
    assert blob.materializations == 0


def test_decode_accepts_memoryview_without_round_trip():
    raw = encode(data_message())
    # A memoryview over a *tracked* buffer: the decoder may slice the
    # view (zero-copy) but must not fall back to bytes(blob) on entry.
    backing = TrackingBytes(raw)
    message = decode(memoryview(backing))
    assert message == data_message()
    assert backing.materializations == 0

    token_backing = TrackingBytes(encode(Token(ring_id=2, rtr=(5,))))
    assert decode(memoryview(token_backing)) == Token(ring_id=2, rtr=(5,))
    assert token_backing.materializations == 0


def test_decode_detail_accepts_memoryview():
    raw = encode(data_message(), ring_id=9)
    detail = decode_detail(memoryview(raw))
    assert detail.kind == "data"
    assert detail.ring_id == 9
    assert detail.message == data_message()
