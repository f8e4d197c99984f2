"""``repro.wire`` — the deterministic binary wire protocol.

Everything that travels between daemons in a real deployment has one
canonical byte encoding here (:mod:`.codec`), shared by the real-socket
emulation and by the capture taps on the simulated switch.  The format
is struct-packed, versioned, CRC-protected and pickle-free, so a
malformed or hostile datagram can be rejected without executing
anything.

* :mod:`.tags`    — the single registry of frame-type and TLV tag
  numbers (checked for uniqueness by ``repro.analysis``).
* :mod:`.codec`   — encode/decode for data messages, the token,
  membership control messages and the spreadlike client protocol.
* :mod:`.capture` — the ``.rcap`` packet-capture format plus taps for
  the simulated switch and the UDP transport.
* :mod:`.analyzer` — the capture analyzer behind
  ``python -m repro.cli decode``.
* :mod:`.fuzz`    — deterministic datagram mutators for the
  malformed-frame fuzz suites.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "codec": (
        "DATA_HEADER_SIZE", "GOSSIP_BASE_SIZE", "GOSSIP_REQ_BASE_SIZE",
        "GOSSIP_UPDATE_SIZE", "HEADER_SIZE", "MAX_RTR_SEQ", "WIRE_VERSION",
        "Decoded", "DecodeError", "EncodeError", "WireError", "decode",
        "decode_detail", "encode", "encoded_size",
    ),
    "capture": (
        "CaptureReader", "CaptureRecord", "CaptureWriter", "SimCaptureTap",
        "TRAFFIC_DATA", "TRAFFIC_TOKEN",
    ),
})
