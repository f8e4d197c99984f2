"""Frozen differential golden for the strict decoder.

A seeded corpus of mutated frames — every frame family the ring puts on
a socket, most cases re-framed with a correct length and CRC so they
reach the body checks instead of dying at the envelope — is pushed
through ``decode`` and through ``decode_detail``, and every outcome is
folded into one SHA-256 per entry point: for an accepted frame the kind,
the ring id and *every* field of the message (the payload included,
which ``DataMessage.__repr__`` leaves out); for a rejected one the exact
``DecodeError`` text.

The digests were minted at the commit *before* the codec lost its two
side decoders (``decode`` then hand-inlined the data body,
``decode_detail`` walked layered helpers), so they pin that the one
remaining path accepts the same frames to the same values and rejects
the rest with the same words.  A deliberate wire change (new version,
new check, new text) re-mints them: print ``_digests()`` and paste.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import struct

from repro.core import Service, Token
from repro.core.coalesce import JumboDatagram
from repro.core.messages import DataMessage
from repro.membership.messages import (
    GossipPing, GossipUpdate, JoinMessage, ProbeMessage, RecoveryData,
)
from repro.wire import codec, fuzz
from repro.wire.codec import DecodeError, decode, decode_detail, encode

SEED = 20161
CASES_PER_FRAME = 2500

#: Share of cases whose mutated body gets a fresh, correct header.
REFRAMED = 0.85

GOLDEN = {
    "cases": 22500,
    "accepted": 7096,
    "decode": "2f0749b2e3fdbd73bf078ec7fd437d8f4fc98c6ac0dd12e51821b9b9566e1fa7",
    "decode_detail":
        "1cb94a125ed623d8a85796da12b22540e55fbb22c4c8b91564241936524214ee",
}


def _data(**overrides) -> DataMessage:
    fields = dict(seq=41, pid=2, round=9, service=Service.AGREED,
                  payload=b"golden-payload" * 6, payload_size=84,
                  sent_after_token=True, submitted_at=1.25)
    fields.update(overrides)
    return DataMessage(**fields)


def _frames():
    """One valid datagram per frame family, in a fixed order."""
    tlv = _data(seq=42, service=Service.SAFE,
                payload=(7, b"x" * 40, "text", None, {"k": [1, 2.5]}),
                sent_after_token=False)
    bare = _data(seq=43, payload=None, payload_size=0, submitted_at=None)
    return [
        ("data-raw", encode(_data(), ring_id=5)),
        ("data-tlv", encode(tlv, ring_id=5)),
        ("data-bare", encode(bare, ring_id=5)),
        ("token", encode(Token(ring_id=5, hop=17, seq=60, aru=55, aru_id=1,
                               fcc=9, rtr=(56, 58, 59)))),
        ("jumbo", encode(JumboDatagram((_data(), tlv, bare)), ring_id=5)),
        ("recovery", encode(RecoveryData(sender=3, old_ring_id=4,
                                         message=_data(seq=44)))),
        ("probe", encode(ProbeMessage(sender=3, ring_id=5))),
        ("join", encode(JoinMessage(sender=1, proc_set=frozenset({0, 1, 2}),
                                    fail_set=frozenset({3}), ring_seq=6))),
        ("gossip-ping", encode(GossipPing(
            sender=2, incarnation=4, probe_id=77,
            updates=(GossipUpdate(0, 3, 1), GossipUpdate(5, 1, 2))))),
    ]


def _reframe(blob: bytes, body: bytes) -> bytes:
    """``body`` under a header that is correct for it (type from ``blob``)."""
    return codec._frame(blob[3], body)


def _mutate_nested(blob: bytes, rng: random.Random, mutator) -> bytes:
    """Mutate the data body *inside* a recovery frame, re-framing both
    levels, so the nested frame's body checks are reached too."""
    nested = blob[codec.HEADER_SIZE + codec._RECOVERY_BODY.size:]
    inner = _reframe(nested, mutator(nested[codec.HEADER_SIZE:], rng))
    sender, old_ring_id, _length = codec._RECOVERY_BODY.unpack_from(
        blob, codec.HEADER_SIZE)
    body = codec._RECOVERY_BODY.pack(sender, old_ring_id, len(inner)) + inner
    return _reframe(blob, body)


def _corpus():
    """Yield (family, mutated datagram); same sequence on every run."""
    for index, (family, blob) in enumerate(_frames()):
        rng = random.Random(SEED + index)
        body = blob[codec.HEADER_SIZE:]
        for _ in range(CASES_PER_FRAME):
            mutator = fuzz.MUTATORS[rng.randrange(len(fuzz.MUTATORS))]
            roll = rng.random()
            if family == "recovery" and roll < 0.5:
                yield family, _mutate_nested(blob, rng, mutator)
            elif roll < REFRAMED:
                yield family, _reframe(blob, mutator(body, rng))
            else:
                yield family, mutator(blob, rng)


def _canon(value) -> str:
    """Every field of a decoded value, recursively, as stable text."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return "%s(%s)" % (type(value).__name__, ", ".join(
            "%s=%s" % (f.name, _canon(getattr(value, f.name)))
            for f in dataclasses.fields(value)))
    if type(value) is JumboDatagram:
        return "Jumbo[%s]" % ", ".join(_canon(m) for m in value.messages)
    if type(value) in (tuple, list):
        return "%s[%s]" % (type(value).__name__,
                           ", ".join(_canon(v) for v in value))
    if type(value) in (set, frozenset):
        return "%s{%s}" % (type(value).__name__,
                           ", ".join(sorted(_canon(v) for v in value)))
    if type(value) is dict:
        return "dict{%s}" % ", ".join(
            "%s: %s" % (_canon(k), _canon(v)) for k, v in value.items())
    if type(value) is float:
        # repr() collapses every NaN payload to "nan"; the bit pattern
        # is what came off the wire.
        return "float:%s" % struct.pack("<d", value).hex()
    return "%s:%r" % (type(value).__name__, value)


def _digests():
    plain, detail = hashlib.sha256(), hashlib.sha256()
    cases = accepted = 0
    for family, blob in _corpus():
        cases += 1
        try:
            outcome = "ok " + _canon(decode(blob))
            accepted += 1
        except DecodeError as exc:
            outcome = "err " + str(exc)
        plain.update(("%s %s\n" % (family, outcome)).encode("utf-8"))
        try:
            decoded = decode_detail(blob)
            outcome = "ok %s ring=%d %s" % (
                decoded.kind, decoded.ring_id, _canon(decoded.message))
        except DecodeError as exc:
            outcome = "err " + str(exc)
        detail.update(("%s %s\n" % (family, outcome)).encode("utf-8"))
    return {
        "cases": cases,
        "accepted": accepted,
        "decode": plain.hexdigest(),
        "decode_detail": detail.hexdigest(),
    }


def test_decoder_outcomes_match_the_parent_minted_golden():
    assert _digests() == GOLDEN


if __name__ == "__main__":  # re-minting aid: python tests/test_wire_decode_golden.py
    print(_digests())
