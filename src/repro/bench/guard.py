"""Benchmark regression guard: fresh run vs committed baseline.

CI regenerates the guarded records (``kernel.json``, ``codec.json``,
``churn_convergence.json``, ``obs_overhead.json``,
``multiring_scaling.json``) into a scratch directory and then runs::

    python -m repro.bench.guard --baseline bench_results --fresh <dir>

Each guarded metric is higher-is-better; a fresh value more than
``--tolerance`` (default 20%) below the committed baseline fails the
run and lists every regressed metric.  The wide tolerance is
deliberate: these are absolute rates measured on whatever machine CI
hands us, so the guard is meant to catch real structural regressions
(an accidentally de-inlined hot path, a quadratic slip) rather than
box-to-box noise — machine-independent floors are asserted inside the
benchmarks themselves.

Improvements are reported, never required: committing a faster
baseline is how the bar ratchets upward.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, List, Tuple

#: Guarded metrics per record file, as dotted paths into the JSON.
#: Every metric is a rate (higher is better).
GUARDED_METRICS: Dict[str, Tuple[str, ...]] = {
    # The kernel's dispatch rate, and the sim-mix in messages delivered
    # per CPU second: a simulator that needs fewer events per message is
    # faster, which events per second would report as a slowdown.
    "kernel.json": (
        "events_per_sec_best",
        "sim_msgs_per_cpu_s_best",
    ),
    "codec.json": (
        "msgs_per_sec.wire_encode",
        "msgs_per_sec.wire_decode",
        "msgs_per_sec.wire_encode_token",
        "msgs_per_sec.wire_decode_token",
    ),
    # Simulated-time rates (machine-independent): view-change
    # convergence speed and the inverse of the gossip detector's
    # steady-state control traffic at the largest swept cluster size.
    "churn_convergence.json": (
        "metrics.crash_convergence_rate_hz",
        "metrics.rejoin_convergence_rate_hz",
        "metrics.ctrl_traffic_headroom",
    ),
    # Observability cost: the sim-mix with tracing off must track the
    # kernel envelope, and the on/off ratio (a machine-independent
    # fraction) guards the "tracing stays cheap" promise.
    "obs_overhead.json": (
        "sim_msgs_per_cpu_s_off_best",
        "sim_msgs_per_cpu_s_on_best",
        "tracing_throughput_ratio",
    ),
    # Multi-ring scale-out (simulated-time, machine-independent): the
    # M=4 aggregate delivered rate, the M=4/M=1 scaling factor, and the
    # M=1-vs-M=4 latency-flatness ratio min(p50)/max(p50).
    "multiring_scaling.json": (
        "metrics.aggregate_msgs_per_s_m4",
        "metrics.scaling_x_m4",
        "metrics.latency_flatness_m4",
    ),
}

DEFAULT_TOLERANCE = 0.20


class GuardError(Exception):
    """A guarded record or metric is missing or malformed."""


def _lookup(record: dict, path: str, origin: str) -> float:
    node = record
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise GuardError("%s: metric %r not found" % (origin, path))
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise GuardError("%s: metric %r is not a number" % (origin, path))
    return float(node)


def _load(directory: str, name: str) -> dict:
    path = os.path.join(directory, name)
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise GuardError("missing record %s" % path)
    except ValueError as exc:
        raise GuardError("unreadable record %s: %s" % (path, exc))


def compare(
    baseline_dir: str,
    fresh_dir: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[str], Iterator[str]]:
    """Compare fresh records against the baseline.

    Returns ``(regressions, report_lines)``: ``regressions`` is a list
    of human-readable failure strings (empty means the guard passes)
    and ``report_lines`` covers every guarded metric.
    """
    regressions: List[str] = []
    lines: List[str] = []
    for name, metrics in sorted(GUARDED_METRICS.items()):
        baseline = _load(baseline_dir, name)
        fresh = _load(fresh_dir, name)
        for path in metrics:
            base_value = _lookup(baseline, path, "baseline %s" % name)
            fresh_value = _lookup(fresh, path, "fresh %s" % name)
            if base_value <= 0:
                raise GuardError(
                    "baseline %s: metric %r is %r, nothing to guard"
                    % (name, path, base_value)
                )
            ratio = fresh_value / base_value
            verdict = "ok"
            if ratio < 1.0 - tolerance:
                verdict = "REGRESSION"
                regressions.append(
                    "%s %s: %.0f vs baseline %.0f (%.0f%%, tolerance %.0f%%)"
                    % (name, path, fresh_value, base_value,
                       100.0 * (ratio - 1.0), 100.0 * tolerance)
                )
            elif ratio > 1.0 + tolerance:
                verdict = "improved"
            lines.append(
                "%-12s %-32s %12.0f -> %12.0f  %+6.1f%%  %s"
                % (name, path, base_value, fresh_value,
                   100.0 * (ratio - 1.0), verdict)
            )
    return regressions, iter(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.guard",
        description="Fail when fresh benchmark records regress "
        "past tolerance vs the committed baselines.",
    )
    parser.add_argument("--baseline", default="bench_results",
                        help="directory holding committed records "
                        "(default: bench_results)")
    parser.add_argument("--fresh", required=True,
                        help="directory holding freshly generated records")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional slowdown "
                        "(default: %.2f)" % DEFAULT_TOLERANCE)
    args = parser.parse_args(argv)
    if not 0 < args.tolerance < 1:
        parser.error("--tolerance must be in (0, 1)")
    try:
        regressions, lines = compare(args.baseline, args.fresh, args.tolerance)
    except GuardError as exc:
        print("bench-guard error: %s" % exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if regressions:
        print("\nbench-guard FAILED: %d regressed metric(s)" % len(regressions),
              file=sys.stderr)
        for failure in regressions:
            print("  " + failure, file=sys.stderr)
        return 1
    print("\nbench-guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
