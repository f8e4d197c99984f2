"""Numbers the benchmark computes about itself: order statistics over
samples and segments, the host calibration loop, and process memory.

Nothing here imports ``repro``; every function is pure or reads only
the operating system.  ``OUT_DIR`` is the one place the benchmark writes.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Iterations of the calibration loop (fixed, so Mops compare across runs).
CALIB_ITERATIONS = 2_000_000
#: The loop is timed in this many equal parts and the median part is the
#: reading, so one stall inside the 60 ms does not move it.
CALIB_PARTS = 4
#: The host speed at which the single-threaded workloads report: the
#: build host's usual reading (it flips between ~32 and ~40 Mops).
REFERENCE_MOPS = 32.0
#: ``host.calib_mops_before`` / ``after`` further apart than this share
#: of the larger one mark the pass ``host_noisy``.
CALIB_TOLERANCE = 0.10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``samples``, linearly interpolated
    between the two closest ranks; ``samples`` need not be sorted."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile %r outside [0, 1]" % (q,))
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_of_segments(values: Sequence[float]) -> float:
    """The reported value of a metric measured once per segment."""
    if not values:
        raise ValueError("no segments measured")
    return statistics.median(values)


def segment_spread(values: Sequence[float]) -> float:
    """The distance between the segments' first and third quartile as a
    share of their median — the measure the driver applies between runs;
    0 for a single segment."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return 0.0
    return (percentile(values, 0.75) - percentile(values, 0.25)) / middle


def latency_percentiles(
    samples_by_segment: Sequence[Sequence[float]], quantiles: Sequence[float]
) -> Dict[float, float]:
    """Per quantile: its value in each segment, then the median of those.

    Segments without samples are skipped; with none at all it raises.
    """
    filled = [s for s in samples_by_segment if s]
    return {
        q: median_of_segments([percentile(s, q) for s in filled])
        for q in quantiles
    }


def calib_mops() -> float:
    """Speed of a fixed pure-Python loop, in million iterations a second.

    The host drifts (33 -> 18 Mops within minutes was measured); a pass
    brackets itself with two readings so a slow host is not mistaken
    for a slow program.
    """
    part = CALIB_ITERATIONS // CALIB_PARTS
    parts = []
    for _ in range(CALIB_PARTS):
        start = time.perf_counter()
        total = 0
        for i in range(part):
            total += i
        parts.append(time.perf_counter() - start)
    return part / statistics.median(parts) / 1e6


def reference_speed_factor(mops_before: float, mops_after: float) -> float:
    """What a rate measured between the two readings is multiplied by (and
    a duration divided by) to read as it would at ``REFERENCE_MOPS``."""
    return REFERENCE_MOPS / ((mops_before + mops_after) / 2.0)


def run_calibrated(run_segment: Callable[[int], Any], seconds: float) -> List[Any]:
    """Call ``run_segment(index)`` until ``seconds`` have passed (once at
    least) with a calibration reading before, between and after, and set
    each returned segment's ``speed_factor`` from the two around it."""
    segments: List[Any] = []
    started = time.perf_counter()
    mops_before = calib_mops()
    while not segments or time.perf_counter() - started < seconds:
        segment = run_segment(len(segments))
        mops_after = calib_mops()
        segment.speed_factor = reference_speed_factor(mops_before, mops_after)
        mops_before = mops_after
        segments.append(segment)
    return segments


def pin_to_one_cpu() -> int:
    """Confine this process, and every thread and child it starts, to the
    highest-numbered CPU it may use; returns that CPU, or -1 where the
    platform has no affinity call.

    Unpinned, the UDP ring's four threads convoy on the GIL across cores
    and the ring measures the scheduler (5k msgs/s, latency that moves 40%
    between minutes); on one CPU a hand-off is a context switch and the
    ring measures its own code (18k msgs/s).  The single-threaded
    workloads are pinned so the calibration loop runs on the CPU they use.
    """
    if not hasattr(os, "sched_setaffinity"):
        return -1
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calib_differs(before: float, after: float) -> bool:
    return abs(before - after) > CALIB_TOLERANCE * max(before, after)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def split_by_segment(
    stamps: Sequence[float], values: Sequence[float],
    start: float, segment_s: float, n_segments: int,
) -> List[List[float]]:
    """Bin ``values`` into segments by their ``stamps`` (same clock as
    ``start``); stamps before ``start`` or past the last segment drop."""
    bins: List[List[float]] = [[] for _ in range(n_segments)]
    for stamp, value in zip(stamps, values):
        index = int((stamp - start) // segment_s)
        if 0 <= index < n_segments:
            bins[index].append(value)
    return bins
