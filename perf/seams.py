"""Traced pass, mechanism (a): forwarding proxies around a UDP node's
``participant`` and ``transport``.

The proxies time the calls that cross a layer boundary —
``on_token``/``on_data``/``submit`` into ``core`` and ``poll``/
``send_data``/``send_data_batch``/``send_token`` into ``emulation``'s
transport (which calls ``wire``) — with ``perf_counter_ns``.  Every other
attribute read or call passes through unchanged, so the node loop cannot
tell a proxy from the real object.  Nothing under ``src/`` is edited.

Each node has its own recorder (one writer thread each, no lock): running
totals per seam, the gaps between spans, and the first ``capacity``
spans in preallocated arrays, written out as JSON lines at the end.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns
from typing import Any, Dict, Iterable, List, Tuple

#: Seam names in span-code order; ``CORE`` and ``SEND`` index into it.
NAMES = ("on_token", "on_data", "submit",
         "poll", "send_data", "send_data_batch", "send_token")
CORE = (0, 1, 2)
POLL = 3
SEND = (4, 5, 6)
PARTICIPANT_SEAMS = NAMES[:3]
TRANSPORT_SEAMS = NAMES[3:]

#: Spans kept per node; later ones still count in the totals.
SPAN_CAPACITY = 100_000


class NodeRecorder:
    """Totals and a bounded span log for one node thread."""

    def __init__(self, node: int, capacity: int = SPAN_CAPACITY) -> None:
        self.node = node
        self.enabled = False
        self.calls = [0] * len(NAMES)
        self.total_ns = [0] * len(NAMES)
        #: Wall time between the end of one span and the start of the
        #: next: the node loop outside ``core`` and the transport.
        self.gap_ns = 0
        self.idle_polls = 0
        self._last_end = 0
        #: Index of the latest ``core`` span: the call whose returned
        #: actions cause the sends that follow it.
        self._last_core = -1
        self.capacity = capacity
        self.spans = 0
        self._code = array("b", bytes(capacity))
        self._start = array("q", bytes(8 * capacity))
        self._end = array("q", bytes(8 * capacity))
        self._cause = array("q", bytes(8 * capacity))

    def add(self, code: int, start: int, end: int) -> None:
        if not self.enabled:
            self._last_end = 0
            return
        self.calls[code] += 1
        self.total_ns[code] += end - start
        if self._last_end:
            self.gap_ns += start - self._last_end
        self._last_end = end
        index = self.spans
        self.spans = index + 1
        if code in CORE:
            cause = -1
            self._last_core = index
        else:
            cause = self._last_core if code in SEND else -1
        if index < self.capacity:
            self._code[index] = code
            self._start[index] = start
            self._end[index] = end
            self._cause[index] = cause

    def rows(self) -> Iterable[Dict[str, Any]]:
        for i in range(min(self.spans, self.capacity)):
            yield {
                "node": self.node, "span": i, "name": NAMES[self._code[i]],
                "start_ns": self._start[i], "end_ns": self._end[i],
                "cause": self._cause[i],
            }


class ForwardingProxy:
    """Stands in for ``target``; times the listed methods, forwards the rest."""

    def __init__(self, target: Any, recorder: NodeRecorder,
                 seams: Iterable[str]) -> None:
        # Written through __dict__ so __setattr__ below can forward.
        self.__dict__["_target"] = target
        self.__dict__["seams_missing"] = 0
        for name in seams:
            method = getattr(target, name, None)
            if method is None:
                self.__dict__["seams_missing"] += 1
                continue
            timed = _timed_poll if name == "poll" else _timed
            self.__dict__[name] = timed(method, recorder, NAMES.index(name))

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not set above: everything but the seams.
        return getattr(self._target, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)


def _timed(method, recorder: NodeRecorder, code: int):
    add = recorder.add

    def call(*args, **kwargs):
        start = perf_counter_ns()
        try:
            return method(*args, **kwargs)
        finally:
            add(code, start, perf_counter_ns())

    return call


def _timed_poll(method, recorder: NodeRecorder, code: int):
    add = recorder.add

    def poll(timeout_s):
        start = perf_counter_ns()
        result = method(timeout_s)
        add(code, start, perf_counter_ns())
        if recorder.enabled and not result[0] and not result[1]:
            recorder.idle_polls += 1
        return result

    return poll


def install(ring: Any) -> Tuple[List[NodeRecorder], int]:
    """Wrap every node of an ``EmulatedRing`` that has not started yet.

    Returns ``(recorders, seams_missing)``.  A seam that a refactor
    removed is counted, not fatal: its metrics read 0 and
    ``trace.seams_missing`` says how many are gone.
    """
    recorders = []
    missing = 0
    for pid, node in ring.nodes.items():
        recorder = NodeRecorder(pid)
        recorders.append(recorder)
        for attribute, seams in (("participant", PARTICIPANT_SEAMS),
                                 ("transport", TRANSPORT_SEAMS)):
            target = getattr(node, attribute, None)
            if target is None:
                missing += len(seams)
                continue
            proxy = ForwardingProxy(target, recorder, seams)
            missing += proxy.seams_missing
            setattr(node, attribute, proxy)
    return recorders, missing


def set_enabled(recorders: Iterable[NodeRecorder], enabled: bool) -> None:
    for recorder in recorders:
        recorder.enabled = enabled


def write_spans(path: str, workload: str,
                recorders: Iterable[NodeRecorder]) -> None:
    """One header line, then one JSON object per kept span."""
    recorders = list(recorders)
    with open(path, "w") as out:
        header = {
            "workload": workload, "clock": "perf_counter_ns",
            "spans_seen": {r.node: r.spans for r in recorders},
            "spans_kept_per_node": recorders[0].capacity if recorders else 0,
        }
        out.write(json.dumps(header) + "\n")
        for recorder in recorders:
            for row in recorder.rows():
                out.write(json.dumps(row) + "\n")


def totals(recorders: Iterable[NodeRecorder]) -> Dict[str, Any]:
    """Sum the per-node recorders into one set of totals."""
    calls = [0] * len(NAMES)
    total_ns = [0] * len(NAMES)
    out = {"gap_ns": 0, "idle_polls": 0}
    for recorder in recorders:
        for code in range(len(NAMES)):
            calls[code] += recorder.calls[code]
            total_ns[code] += recorder.total_ns[code]
        out["gap_ns"] += recorder.gap_ns
        out["idle_polls"] += recorder.idle_polls
    out["calls"] = dict(zip(NAMES, calls))
    out["ns"] = dict(zip(NAMES, total_ns))
    return out
