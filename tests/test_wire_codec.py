"""Unit tests for the binary wire codec: layouts, strictness, values."""

import struct
import zlib

import pytest

from repro.core import Service, Token
from repro.core.messages import DataMessage
from repro.core.packing import PackedItem, PackedPayload
from repro.membership.messages import (
    CommitToken,
    JoinMessage,
    MemberInfo,
    ProbeMessage,
    RecoveryComplete,
    RecoveryData,
)
from repro.spreadlike.protocol import ClientId, GroupCast, GroupMessage
from repro.wire import codec
from repro.wire.codec import DecodeError, EncodeError, decode, decode_detail, encode


def data_message(**overrides):
    fields = dict(seq=7, pid=2, round=9, service=Service.AGREED,
                  payload=b"payload", payload_size=7, submitted_at=1.5)
    fields.update(overrides)
    return DataMessage(**fields)


# -- header ------------------------------------------------------------------

def test_header_layout():
    blob = encode(Token())
    magic, version, msg_type, body_len, crc = struct.unpack_from("<2sBBII", blob)
    assert magic == b"AR"
    assert version == codec.WIRE_VERSION == 1
    assert msg_type == codec.TYPE_TOKEN
    assert body_len == len(blob) - codec.HEADER_SIZE
    assert crc == zlib.crc32(blob[codec.HEADER_SIZE:]) & 0xFFFFFFFF


def test_unknown_version_rejected():
    blob = bytearray(encode(Token()))
    blob[2] = 99
    with pytest.raises(DecodeError, match="version"):
        decode(bytes(blob))


def test_unknown_type_rejected():
    body = b""
    blob = struct.pack("<2sBBII", b"AR", 1, 200, 0, zlib.crc32(body))
    with pytest.raises(DecodeError, match="type"):
        decode(blob)


def test_bad_magic_rejected():
    blob = bytearray(encode(Token()))
    blob[0] = 0x58
    with pytest.raises(DecodeError, match="magic"):
        decode(bytes(blob))


def test_crc_mismatch_rejected():
    blob = bytearray(encode(data_message()))
    blob[-1] ^= 0x01  # corrupt the body, keep the recorded CRC
    with pytest.raises(DecodeError, match="CRC"):
        decode(bytes(blob))


def test_truncation_and_trailing_garbage_rejected():
    blob = encode(data_message())
    with pytest.raises(DecodeError):
        decode(blob[:-1])
    with pytest.raises(DecodeError):
        decode(blob + b"\x00")
    with pytest.raises(DecodeError):
        decode(b"")


def test_every_prefix_of_a_valid_frame_is_rejected():
    blob = encode(Token(ring_id=1, rtr=(3, 5)))
    for cut in range(len(blob)):
        with pytest.raises(DecodeError):
            decode(blob[:cut])


def test_non_bytes_input_rejected():
    with pytest.raises(DecodeError):
        decode(None)  # type: ignore[arg-type]


# -- token -------------------------------------------------------------------

def test_token_roundtrip_all_fields():
    token = Token(ring_id=6, hop=41, seq=1000, aru=990, aru_id=3,
                  fcc=17, rtr=(991, 995, 999))
    assert decode(encode(token)) == token


def test_token_aru_id_none_roundtrip():
    token = Token(aru_id=None)
    assert decode(encode(token)).aru_id is None


def test_token_rtr_entry_too_large_rejected():
    with pytest.raises(EncodeError, match="rtr"):
        encode(Token(rtr=(codec.MAX_RTR_SEQ + 1,)))


def test_token_negative_field_rejected():
    with pytest.raises(EncodeError):
        encode(Token(seq=-1))


def test_token_reserved_fields_must_be_zero():
    blob = bytearray(encode(Token()))
    # backlog is the 7th field of the body: offset 12 + 48.
    struct.pack_into("<I", blob, codec.HEADER_SIZE + 48, 1)
    body = bytes(blob[codec.HEADER_SIZE:])
    struct.pack_into("<I", blob, 8, zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(DecodeError, match="reserved"):
        decode(bytes(blob))


def test_token_rtr_count_must_match_body():
    blob = bytearray(encode(Token(rtr=(5,))))
    # Claim two rtr entries while carrying one.
    struct.pack_into("<I", blob, codec.HEADER_SIZE + 56, 2)
    body = bytes(blob[codec.HEADER_SIZE:])
    struct.pack_into("<I", blob, 8, zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(DecodeError, match="rtr"):
        decode(bytes(blob))


# -- data messages -----------------------------------------------------------

def test_data_roundtrip_bytes_payload():
    message = data_message(payload=b"\x00\xffhello", payload_size=7)
    decoded = decode_detail(encode(message, ring_id=5))
    assert decoded.message == message
    assert decoded.kind == "data"
    assert decoded.ring_id == 5


def test_data_roundtrip_none_payload_and_flags():
    message = data_message(payload=None, payload_size=1350,
                           sent_after_token=True, submitted_at=None)
    decoded = decode(encode(message))
    assert decoded == message
    assert decoded.sent_after_token is True
    assert decoded.submitted_at is None


def test_data_zero_timestamp_distinct_from_none():
    with_stamp = data_message(submitted_at=0.0)
    decoded = decode(encode(with_stamp))
    assert decoded.submitted_at == 0.0
    assert decoded.submitted_at is not None


def test_data_structured_payloads_roundtrip():
    payloads = [
        ("tuple", 1, 2.5),
        ["list", None, True, False],
        {"key": (1, 2), 3: b"bytes"},
        frozenset({1, 2, 3}),
        {"nested": {"deep": [{"deeper": ()}]}},
        2 ** 100,
        -(2 ** 100),
        "unicode ❤ text",
    ]
    for payload in payloads:
        message = data_message(payload=payload)
        assert decode(encode(message)) == message


def test_data_packed_payload_roundtrip():
    packed = PackedPayload(items=(
        PackedItem(payload=b"a" * 40, payload_size=40, submitted_at=0.25),
        PackedItem(payload=("x", 1), payload_size=24, submitted_at=None),
    ))
    message = data_message(payload=packed, payload_size=packed.total_size)
    assert decode(encode(message)) == message


def test_data_spreadlike_payload_roundtrip():
    cast = GroupCast(groups=("alpha", "beta"), sender=ClientId(2, "cli"),
                     payload={"op": "put", "key": 7})
    message = data_message(payload=cast)
    assert decode(encode(message)) == message
    delivered = GroupMessage(groups=("alpha",), sender=ClientId(2, "cli"),
                             payload=b"v", service=Service.SAFE, seq=40)
    message = data_message(payload=delivered)
    assert decode(encode(message)) == message


def test_unencodable_payload_raises_encode_error():
    class Arbitrary:
        pass

    with pytest.raises(EncodeError, match="Arbitrary"):
        encode(data_message(payload=Arbitrary()))


def test_deep_nesting_rejected_on_encode():
    nested = ()
    for _ in range(200):
        nested = (nested,)
    with pytest.raises(EncodeError, match="nesting"):
        encode(data_message(payload=nested))


def test_set_encoding_is_order_independent():
    a = data_message(payload=frozenset({"x", "y", "z", 1, 2, 3}))
    b = data_message(payload=frozenset({3, 2, 1, "z", "y", "x"}))
    assert encode(a) == encode(b)


def test_unknown_service_code_rejected():
    blob = bytearray(encode(data_message()))
    # service byte: ring,seq,pid,round (32) + submitted_at f64 (8) +
    # payload_size u32 (4) = body offset 44.
    struct.pack_into("<B", blob, codec.HEADER_SIZE + 44, 99)
    body = bytes(blob[codec.HEADER_SIZE:])
    struct.pack_into("<I", blob, 8, zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(DecodeError, match="service"):
        decode(bytes(blob))


# One data-body decoder serves a plain frame, every jumbo entry and the
# frame nested in recovery-data: a body one of them rejects, all reject,
# in the same words.  Offsets into the fixed body (<QQQQdIBBBB):
# submitted_at 32, service 44, flags 45, payload kind 46.

def _framed(msg_type, body):
    return struct.pack("<2sBBII", b"AR", 1, msg_type, len(body),
                       zlib.crc32(body) & 0xFFFFFFFF) + bytes(body)


def _as_plain(body):
    return _framed(codec.TYPE_DATA, body)


def _as_second_jumbo_entry(body):
    good = encode(data_message())[codec.HEADER_SIZE:]
    entries = b"".join(
        struct.pack("<BI", codec.TYPE_DATA, len(entry)) + bytes(entry)
        for entry in (good, body)
    )
    return _framed(codec.TYPE_JUMBO, struct.pack("<I", 2) + entries)


def _as_recovery_nested(body):
    nested = _framed(codec.TYPE_DATA, body)
    return _framed(codec.TYPE_RECOVERY_DATA,
                   struct.pack("<QQI", 1, 3, len(nested)) + nested)


def _unknown_flag_bit(body):
    body[45] |= 0x80


def _nan_timestamp(body):
    struct.pack_into("<d", body, 32, float("nan"))


def _unknown_service(body):
    body[44] = 99


def _payload_on_payload_less(body):
    body[46] = 0  # payload kind "none", payload bytes still attached


def _truncated_fixed_body(body):
    del body[codec._DATA_BODY.size - 1:]


@pytest.mark.parametrize("corrupt, text", [
    (_unknown_flag_bit, "unknown data flags 0x82"),
    (_nan_timestamp, "NaN submission timestamp"),
    (_unknown_service, "unknown service code 99"),
    (_payload_on_payload_less,
     "payload bytes on a payload-less data message"),
    (_truncated_fixed_body, "truncated frame body"),
], ids=["flag-bit", "nan-timestamp", "service-code", "stray-payload",
        "truncated"])
def test_data_body_checks_hold_wherever_a_data_body_travels(corrupt, text):
    body = bytearray(encode(data_message())[codec.HEADER_SIZE:])
    wrappings = (_as_plain, _as_second_jumbo_entry, _as_recovery_nested)
    for wrap in wrappings:
        decode(wrap(body))  # the intact body is accepted everywhere
    corrupt(body)
    for wrap in wrappings:
        for decoder in (decode, decode_detail):
            with pytest.raises(DecodeError) as caught:
                decoder(wrap(body))
            assert str(caught.value) == text, wrap.__name__


def test_hostile_count_rejected_without_allocation():
    # A 4-byte count field claiming 2**31 tuple items in a tiny body must
    # fail fast, not attempt a giant allocation.
    message = data_message(payload=("small",))
    blob = bytearray(encode(message))
    # The value section starts right after the fixed data body; its first
    # byte is the tuple tag, then the u32 item count.
    offset = codec.HEADER_SIZE + 48
    assert blob[offset] == 0x08  # tuple tag
    struct.pack_into("<I", blob, offset + 1, 2 ** 31)
    body = bytes(blob[codec.HEADER_SIZE:])
    struct.pack_into("<I", blob, 8, zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(DecodeError):
        decode(bytes(blob))


# -- membership messages -----------------------------------------------------

def test_membership_roundtrips():
    messages = [
        ProbeMessage(sender=3, ring_id=12),
        JoinMessage(sender=1, proc_set=frozenset({1, 2, 5}),
                    fail_set=frozenset({9}), ring_seq=14),
        JoinMessage(sender=0, proc_set=frozenset(), fail_set=frozenset(),
                    ring_seq=0),
        CommitToken(new_ring_id=15, members=(0, 1, 2), rotation=1,
                    collected=(
                        MemberInfo(pid=0, old_ring_id=12, old_aru=40,
                                   high_seq=44, old_members=(0, 1),
                                   old_safe_bound=39, old_delivered_upto=40),
                        MemberInfo(pid=1, old_ring_id=13, old_aru=0,
                                   high_seq=0, old_members=(),
                                   old_safe_bound=-1, old_delivered_upto=0),
                    )),
        RecoveryData(sender=2, old_ring_id=12,
                     message=data_message(payload=("recovered", 1))),
        RecoveryComplete(sender=2, new_ring_id=15),
    ]
    for message in messages:
        decoded = decode(encode(message))
        assert decoded == message, message


def test_recovery_data_with_non_data_inner_frame_rejected():
    recovery = RecoveryData(sender=1, old_ring_id=3, message=data_message())
    blob = bytearray(encode(recovery))
    inner = encode(Token())
    # Replace the nested frame with a token of a different length: rebuild.
    prefix = struct.pack("<QQI", 1, 3, len(inner))
    body = prefix + inner
    header = struct.pack("<2sBBII", b"AR", 1, codec.TYPE_RECOVERY_DATA,
                         len(body), zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(DecodeError, match="non-data"):
        decode(header + body)
    assert decode(bytes(blob)) == recovery  # the original is still fine


# -- determinism -------------------------------------------------------------

def test_encoding_is_deterministic():
    message = data_message(payload={"b": 2, "a": 1, "set": frozenset({3, 1})})
    assert encode(message) == encode(message)
    token = Token(ring_id=2, rtr=(9, 4, 1))
    assert encode(token) == encode(token)


def test_encoded_size_matches_encode():
    for message in (Token(rtr=(1, 2, 3)), data_message(),
                    ProbeMessage(sender=1, ring_id=2)):
        assert codec.encoded_size(message) == len(encode(message))
