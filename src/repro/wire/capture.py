"""``.rcap`` packet captures: one record format for both worlds.

A capture is a flat binary file of wire frames plus per-frame metadata
(timestamp, source, destination, logical port).  The simulated switch
and the real-socket UDP transport write the *same* format, so one
decoder (:mod:`repro.wire.analyzer`) serves both and a sim run can be
diffed against an emulation run frame-for-frame.

File layout::

    offset  size  field
    0       4     magic b"RCAP"
    4       2     capture format version (currently 1)
    6       1     world: 0 = sim, 1 = emulation
    7       1     reserved (0)
    8       4     label length
    12      ...   UTF-8 label (free-form, e.g. the run's parameters)

followed by zero or more records::

    0       8     timestamp, seconds (f64; sim time or monotonic time)
    8       8     source id (i64; -1 = unknown)
    16      8     destination id (i64; -1 = multicast)
    24      1     traffic class: 0 = data port, 1 = token port
    25      1     reserved (0)
    26      2     reserved (0)
    28      4     frame length
    32      ...   the encoded wire frame (:mod:`repro.wire.codec`)

Records are appended in capture order; the file needs no index and
truncated tails (a crashed writer) are detected, reported, and do not
invalidate the records before them.
"""

from __future__ import annotations

import struct
import threading
from typing import Any, BinaryIO, Iterator, NamedTuple, Optional, Tuple, Type

from . import codec
from .codec import DecodeError, EncodeError

RCAP_MAGIC = b"RCAP"
RCAP_VERSION = 1

WORLD_SIM = 0
WORLD_EMULATION = 1
WORLD_NAMES = {WORLD_SIM: "sim", WORLD_EMULATION: "emulation"}

TRAFFIC_DATA = 0
TRAFFIC_TOKEN = 1
TRAFFIC_NAMES = {TRAFFIC_DATA: "data", TRAFFIC_TOKEN: "token"}

_FILE_HEADER = struct.Struct("<4sHBBI")
_RECORD_HEADER = struct.Struct("<dqqBBHI")

#: Destination id meaning "multicast to every other port".
MULTICAST = -1


class CaptureError(ValueError):
    """The file is not a readable ``.rcap`` capture."""


def open_record_file(
    path: str, kind: str, magic: bytes, version: int, world: int,
    extra: int, label: str,
) -> BinaryIO:
    """Create ``path`` and write the file header ``.rcap`` captures and
    ``.rtrace`` traces share (magic, version, world, one format-specific
    byte ``extra``, then the label); returns the open handle."""
    if world not in WORLD_NAMES:
        raise ValueError("unknown %s world %r" % (kind, world))
    raw_label = label.encode("utf-8")
    handle = open(path, "wb")
    handle.write(_FILE_HEADER.pack(magic, version, world, extra,
                                   len(raw_label)))
    handle.write(raw_label)
    return handle


def read_record_file(
    path: str, kind: str, magic: bytes, version: int,
    error: Type[ValueError],
) -> Tuple[bytes, int, int, str, int]:
    """Read ``path`` and check the shared file header, raising ``error``
    if it is not a ``kind`` file; returns ``(data, world, extra, label,
    offset of the first record)``."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _FILE_HEADER.size:
        raise error("file shorter than the %s header" % kind)
    found, found_version, world, extra, label_len = _FILE_HEADER.unpack_from(
        data
    )
    if found != magic:
        raise error("bad %s magic %r" % (kind, found))
    if found_version != version:
        raise error("unsupported %s version %d" % (kind, found_version))
    if world not in WORLD_NAMES:
        raise error("unknown %s world %d" % (kind, world))
    body_start = _FILE_HEADER.size + label_len
    if body_start > len(data):
        raise error("truncated %s label" % kind)
    try:
        label = data[_FILE_HEADER.size:body_start].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error("invalid %s label: %s" % (kind, exc))
    return data, world, extra, label, body_start


class CaptureRecord(NamedTuple):
    """One captured frame, still encoded."""

    timestamp: float
    src: int
    dst: int  #: ``MULTICAST`` (-1) for multicast frames.
    traffic: int  #: ``TRAFFIC_DATA`` or ``TRAFFIC_TOKEN``.
    blob: bytes

    @property
    def traffic_name(self) -> str:
        return TRAFFIC_NAMES.get(self.traffic, "t%d" % self.traffic)

    def decode(self) -> codec.Decoded:
        """Decode the captured frame (raises DecodeError if corrupt)."""
        return codec.decode_detail(self.blob)


class CaptureWriter:
    """Append-only ``.rcap`` writer; safe to share across node threads."""

    def __init__(self, path: str, world: int, label: str = "") -> None:
        self.path = path
        self.world = world
        self.label = label
        self.records_written = 0
        #: Frames the tap saw but could not encode (sim-internal payloads).
        self.records_skipped = 0
        self._lock = threading.Lock()
        self._handle = open_record_file(
            path, "rcap", RCAP_MAGIC, RCAP_VERSION, world, 0, label
        )

    def write(
        self,
        timestamp: float,
        src: int,
        dst: Optional[int],
        traffic: int,
        blob: bytes,
    ) -> None:
        """Append one already-encoded frame."""
        record = _RECORD_HEADER.pack(
            timestamp,
            src if src is not None else -1,
            dst if dst is not None else MULTICAST,
            traffic, 0, 0,
            len(blob),
        ) + blob
        with self._lock:
            if self._handle.closed:
                return  # a late sender racing close(); drop silently
            self._handle.write(record)
            self.records_written += 1

    def write_message(
        self,
        timestamp: float,
        src: int,
        dst: Optional[int],
        traffic: int,
        message: Any,
        ring_id: int = 0,
    ) -> bool:
        """Encode and append one protocol message.

        Returns False (and counts the skip) when the payload has no wire
        encoding — capture must never take down the node it observes.
        """
        try:
            blob = codec.encode(message, ring_id=ring_id)
        except EncodeError:
            with self._lock:
                self.records_skipped += 1
            return False
        self.write(timestamp, src, dst, traffic, blob)
        return True

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class CaptureReader:
    """Sequential reader over an ``.rcap`` file."""

    def __init__(self, path: str) -> None:
        self.path = path
        (self._data, self.world, _reserved, self.label,
         self._body_start) = read_record_file(
            path, "rcap", RCAP_MAGIC, RCAP_VERSION, CaptureError
        )
        self.world_name = WORLD_NAMES[self.world]
        #: Set by iteration when the file ends mid-record (crashed writer).
        self.truncated_tail = False

    def __iter__(self) -> Iterator[CaptureRecord]:
        data = self._data
        pos = self._body_start
        size = len(data)
        while pos < size:
            if pos + _RECORD_HEADER.size > size:
                self.truncated_tail = True
                return
            (timestamp, src, dst, traffic, _r1, _r2,
             blob_len) = _RECORD_HEADER.unpack_from(data, pos)
            pos += _RECORD_HEADER.size
            if pos + blob_len > size:
                self.truncated_tail = True
                return
            yield CaptureRecord(
                timestamp, src, dst, traffic, data[pos:pos + blob_len]
            )
            pos += blob_len


# -- taps -------------------------------------------------------------------

class SimCaptureTap:
    """Switch-ingress tap for the simulator.

    Install with :meth:`repro.net.Switch.set_capture`; every frame that
    reaches the crossbar is encoded once (multicast frames appear once,
    as on the switch's ingress port, exactly like the emulation's
    send-side tap).  An EVS ring frame's ``(ring_id, message)`` pair is
    unwrapped; a payload without a wire representation is counted as a
    skip.
    """

    def __init__(self, sim, writer: CaptureWriter) -> None:
        self.sim = sim
        self.writer = writer

    def __call__(self, frame) -> None:
        from ..net.frames import Traffic  # local: the UDP path skips net

        traffic = TRAFFIC_TOKEN if frame.traffic is Traffic.TOKEN else TRAFFIC_DATA
        payload = frame.payload
        ring_id = 0
        if type(payload) is tuple:  # an EVS ring frame: (ring_id, message)
            ring_id, payload = payload
        self.writer.write_message(
            self.sim.now, frame.src, frame.dst, traffic, payload,
            ring_id=ring_id,
        )
