"""``.rtrace`` lifecycle traces: one record format for sim and wire.

A trace is a flat binary file of fixed-size lifecycle records — one per
(message, stage, node) event stamped by
:class:`repro.obs.lifecycle.LifecycleTracer`.  Like ``.rcap`` captures
(:mod:`repro.wire.capture`), the simulated cluster and the UDP
emulation write the *same* format, so one analyzer
(``python -m repro.cli trace-analyze``) serves both.

File layout (the header is ``.rcap``'s, written and checked by
:func:`repro.wire.capture.open_record_file`/``read_record_file``)::

    offset  size  field
    0       4     magic b"RTRC"
    4       2     trace format version (currently 1)
    6       1     world: 0 = sim, 1 = emulation
    7       1     clock: 0 = sim time, 1 = wall (monotonic) time
    8       4     label length
    12      ...   UTF-8 label (free-form, e.g. the run's parameters)

followed by zero or more fixed-size 26-byte records::

    0       8     timestamp, seconds (f64; sim or monotonic per header)
    8       1     stage id (repro.obs.lifecycle.STAGE_*)
    9       1     reserved (0)
    10      4     observing node pid (i32; -1 = unknown)
    14      4     originating node pid (i32; -1 = n/a, e.g. tokens)
    18      4     message sequence number (u32; round id for token stages)
    22      4     aux (u32; stage-specific flags/payload, see lifecycle.py)

Records are appended in stamp order; truncated tails (a crashed writer)
are detected, reported, and do not invalidate records before them.
``python -m repro.cli trace-analyze --json`` is the JSON view of a trace.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, NamedTuple

from .capture import WORLD_NAMES, open_record_file, read_record_file

RTRACE_MAGIC = b"RTRC"
RTRACE_VERSION = 1

CLOCK_SIM = 0
CLOCK_WALL = 1
CLOCK_NAMES = {CLOCK_SIM: "sim", CLOCK_WALL: "wall"}

_RECORD = struct.Struct("<dBBiiII")

#: Public alias: the fixed record codec.  The lifecycle tracer packs
#: stamps with it directly into a bytearray — packed bytes are invisible
#: to the cyclic GC, where an equivalent tuple-per-stamp store makes
#: full collections scan the whole trace and dominates tracing cost.
RECORD_STRUCT = _RECORD
RECORD_SIZE = _RECORD.size

#: pid placeholder for "not applicable" (token records have no origin).
NO_PID = -1


class TraceFormatError(ValueError):
    """The file is not a readable ``.rtrace`` trace."""


class TraceRecord(NamedTuple):
    """One lifecycle stamp."""

    t: float
    stage: int
    node: int  #: pid of the node observing the stage (-1 = unknown).
    origin: int  #: pid that originated the message (-1 = n/a).
    seq: int  #: message sequence number, or round id for token stages.
    aux: int  #: stage-specific flags (see :mod:`repro.obs.lifecycle`).


class TraceWriter:
    """Append-only ``.rtrace`` writer."""

    def __init__(
        self, path: str, world: int, clock: int, label: str = ""
    ) -> None:
        if clock not in CLOCK_NAMES:
            raise ValueError("unknown trace clock %r" % (clock,))
        self.path = path
        self.world = world
        self.clock = clock
        self.label = label
        self.records_written = 0
        self._handle = open_record_file(
            path, "rtrace", RTRACE_MAGIC, RTRACE_VERSION, world, clock, label
        )

    def write_packed(self, data: bytes) -> None:
        """Append records already packed with :data:`RECORD_STRUCT`."""
        if len(data) % RECORD_SIZE:
            raise ValueError(
                "packed trace data is %d bytes, not a multiple of the "
                "%d-byte record" % (len(data), RECORD_SIZE)
            )
        self._handle.write(data)
        self.records_written += len(data) // RECORD_SIZE

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class TraceReader:
    """Sequential reader over an ``.rtrace`` file."""

    def __init__(self, path: str) -> None:
        self.path = path
        (self._data, self.world, self.clock, self.label,
         self._body_start) = read_record_file(
            path, "rtrace", RTRACE_MAGIC, RTRACE_VERSION, TraceFormatError
        )
        if self.clock not in CLOCK_NAMES:
            raise TraceFormatError("unknown trace clock %d" % self.clock)
        self.world_name = WORLD_NAMES[self.world]
        self.clock_name = CLOCK_NAMES[self.clock]
        #: Set by iteration when the file ends mid-record (crashed writer).
        self.truncated_tail = False

    def __iter__(self) -> Iterator[TraceRecord]:
        data = self._data
        pos = self._body_start
        size = len(data)
        record_size = _RECORD.size
        unpack_from = _RECORD.unpack_from
        while pos < size:
            if pos + record_size > size:
                self.truncated_tail = True
                return
            t, stage, _reserved, node, origin, seq, aux = unpack_from(data, pos)
            yield TraceRecord(t, stage, node, origin, seq, aux)
            pos += record_size


class LoadedTrace(NamedTuple):
    """A fully-loaded trace."""

    world_name: str
    clock_name: str
    label: str
    records: List[TraceRecord]
    truncated_tail: bool


def load_trace(path: str) -> LoadedTrace:
    """Load a whole ``.rtrace`` file; :class:`TraceFormatError` if it is
    not one."""
    reader = TraceReader(path)
    records = list(reader)
    return LoadedTrace(
        world_name=reader.world_name,
        clock_name=reader.clock_name,
        label=reader.label,
        records=records,
        truncated_tail=reader.truncated_tail,
    )
