"""Wire codec coverage for the three gossip message types."""

import pytest

from repro.membership.gossip import ALIVE, DEAD, SUSPECT
from repro.membership.messages import (
    GossipAck,
    GossipPing,
    GossipPingReq,
    GossipUpdate,
)
# Import from the codec module, not the package: the package also has
# a `decode` *submodule* (the capture analyzer) which shadows the
# package-level `decode` function once anything imports it.
from repro.wire.codec import (
    GOSSIP_BASE_SIZE,
    GOSSIP_REQ_BASE_SIZE,
    GOSSIP_UPDATE_SIZE,
    DecodeError,
    EncodeError,
    decode,
    encode,
    encoded_size,
)

UPDATES = (
    GossipUpdate(3, 0, ALIVE),
    GossipUpdate(7, 2, SUSPECT),
    GossipUpdate(11, 5, DEAD),
)

MESSAGES = [
    GossipPing(1, 0, 42),
    GossipPing(2, 3, 77, UPDATES),
    GossipPingReq(4, 1, 9, 101, UPDATES[:2]),
    GossipAck(9, 6, 101),
    GossipAck(9, 6, 101, UPDATES),
]


@pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
def test_gossip_roundtrip(message):
    blob = encode(message)
    assert decode(blob) == message
    assert len(blob) == encoded_size(message)


@pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
def test_gossip_sizes_match_sim_charging(message):
    # The sim charges GOSSIP_*_SIZE for gossip frames; the real codec
    # must agree, or the packet-level model drifts from the bytes.
    base = (GOSSIP_REQ_BASE_SIZE if isinstance(message, GossipPingReq)
            else GOSSIP_BASE_SIZE)
    assert len(encode(message)) == \
        base + len(message.updates) * GOSSIP_UPDATE_SIZE


def test_gossip_update_status_is_validated():
    bad = GossipPing(1, 0, 1, (GossipUpdate(2, 0, 9),))
    with pytest.raises(EncodeError):
        encode(bad)


def test_truncated_gossip_frame_is_rejected():
    blob = encode(GossipPing(2, 3, 77, UPDATES))
    with pytest.raises(DecodeError):
        decode(blob[: len(blob) - 5])


def test_corrupt_update_count_is_rejected():
    blob = bytearray(encode(GossipAck(9, 6, 101, UPDATES)))
    # The update count lives right after the fixed body; inflate it.
    count_offset = GOSSIP_BASE_SIZE - 4
    blob[count_offset:count_offset + 4] = (10 ** 6).to_bytes(4, "little")
    with pytest.raises(DecodeError):
        decode(bytes(blob))
