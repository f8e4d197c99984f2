"""Multi-ring scaling sweep -> ``bench_results/multiring_scaling.json``.

One record answers the scale-out question the subsystem exists for:
does aggregate delivered throughput grow near-linearly in the number of
rings M while each group's agreed latency stays flat?  Every point runs
the same per-ring workload (4 nodes/ring, 4 groups/ring, 1350-byte
agreed messages at a fixed per-ring rate), so M rings offer M times the
load and perfect sharding delivers M times the throughput at unchanged
latency — Multi-Ring Paxos's claim, rebuilt on accelerated rings.

All measured quantities are *simulated-time* rates and latencies:
machine-independent, byte-stable for a given seed, and therefore safe
to guard with :mod:`repro.bench.guard` at its normal tolerance.  The
guarded metrics are the M=4 aggregate rate, the M=4/M=1 scaling factor
(target: >= 3.0x), and the latency-flatness ratio min(p50)/max(p50)
between M=1 and M=4 (target: >= 0.85, i.e. within 15%).

Every point also runs both ordering oracles — per-ring EVS and the
cross-ring merge checker — and the record carries their violation
counts, so a scaling number from a run that broke ordering can never
look healthy.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Sequence

from .sim import MultiRingResult, MultiRingSimCluster

DEFAULT_RECORD_PATH = os.path.join("bench_results", "multiring_scaling.json")

#: The swept ring counts; 1 is the baseline every ratio is against.
DEFAULT_MS = (1, 2, 4, 8)

#: The workload behind every point (see module docstring).
N_NODES = 4
GROUPS_PER_RING = 4
PAYLOAD_SIZE = 1350
OFFERED_PER_RING_BPS = 320e6
ROUND_INTERVAL_S = 0.002
DURATION_S = 0.3
WARMUP_S = 0.1
DRAIN_S = 0.06


def run_point(n_rings: int, seed: int = 1) -> MultiRingResult:
    """One sweep point: build, run and check an M-ring deployment."""
    cluster = MultiRingSimCluster(
        n_rings,
        n_nodes=N_NODES,
        groups_per_ring=GROUPS_PER_RING,
        payload_size=PAYLOAD_SIZE,
        round_interval_s=ROUND_INTERVAL_S,
        seed=seed,
    )
    return cluster.run(
        duration_s=DURATION_S,
        warmup_s=WARMUP_S,
        drain_s=DRAIN_S,
        offered_per_ring_bps=OFFERED_PER_RING_BPS,
    )


def _entry(result: MultiRingResult) -> Dict[str, Any]:
    return {
        "m": result.n_rings,
        "aggregate_msgs_per_s": round(result.aggregate_msgs_per_s, 1),
        "aggregate_mbps": round(result.aggregate_mbps, 2),
        "group_latency_p50_us": round(result.group_latency_p50_s * 1e6, 2),
        "group_latency_p50_max_us": round(
            result.group_latency_p50_max_s * 1e6, 2
        ),
        "rounds_merged": result.rounds_merged,
        "skips_filled": result.skips_filled,
        "entries_merged": result.entries_merged,
        "max_ring_lag_rounds": result.max_ring_lag_rounds,
        "merged_fingerprint": result.merged_fingerprint,
        "evs_violations": len(result.evs_violations),
        "cross_ring_violations": len(result.cross_ring_violations),
        "saturated_rings": sum(1 for r in result.per_ring if r.saturated),
        "per_ring_achieved_mbps": [
            round(r.achieved_mbps, 1) for r in result.per_ring
        ],
    }


def scaling_sweep(
    ms: Sequence[int] = DEFAULT_MS,
    seed: int = 1,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run every M; returns the record dict (see module docstring)."""
    entries = []
    by_m: Dict[int, MultiRingResult] = {}
    for n_rings in ms:
        result = run_point(n_rings, seed=seed)
        by_m[n_rings] = result
        entries.append(_entry(result))
        if progress is not None:
            progress(
                "M=%d  %8.0f msgs/s  %7.1f Mbps  p50 %6.1f us  "
                "rounds %d  skips %d  violations %d"
                % (n_rings, result.aggregate_msgs_per_s,
                   result.aggregate_mbps,
                   result.group_latency_p50_s * 1e6,
                   result.rounds_merged, result.skips_filled,
                   len(result.evs_violations)
                   + len(result.cross_ring_violations))
            )
    record: Dict[str, Any] = {
        "schema": 1,
        "seed": seed,
        "ms": list(ms),
        "workload": {
            "n_nodes_per_ring": N_NODES,
            "groups_per_ring": GROUPS_PER_RING,
            "payload_size": PAYLOAD_SIZE,
            "offered_per_ring_mbps": OFFERED_PER_RING_BPS / 1e6,
            "round_interval_ms": ROUND_INTERVAL_S * 1e3,
            "duration_s": DURATION_S,
            "warmup_s": WARMUP_S,
        },
        "sweep": entries,
        "metrics": {},
    }
    if 1 in by_m and 4 in by_m:
        base = by_m[1]
        quad = by_m[4]
        p50s = (base.group_latency_p50_s, quad.group_latency_p50_s)
        record["metrics"] = {
            "aggregate_msgs_per_s_m4": round(quad.aggregate_msgs_per_s, 1),
            "scaling_x_m4": round(
                quad.aggregate_msgs_per_s / base.aggregate_msgs_per_s, 3
            ),
            "latency_flatness_m4": round(min(p50s) / max(p50s), 3),
        }
        if 8 in by_m:
            record["metrics"]["scaling_x_m8"] = round(
                by_m[8].aggregate_msgs_per_s / base.aggregate_msgs_per_s, 3
            )
    return record


def total_violations(record: Dict[str, Any]) -> int:
    return sum(
        entry["evs_violations"] + entry["cross_ring_violations"]
        for entry in record["sweep"]
    )
