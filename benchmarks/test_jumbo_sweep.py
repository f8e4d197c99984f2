"""Jumbo-coalescing sweep: throughput/latency/CPU vs the datagram cap.

Not a paper figure; characterizes the jumbo-datagram layer
(:mod:`repro.core.coalesce`) on the packet-level simulator.  For each
coalescing cap the same saturating workload runs twice (best-of-two CPU
sample) and three quantities are recorded:

* the *modeled* metrics — achieved throughput and delivery latency on
  the simulated gigabit fabric, where coalescing trades a latency bump
  for fewer, larger datagrams;
* the *sim-path* throughput — delivered messages per CPU second of
  simulator execution.  Coalescing removes a per-packet chain of
  simulated events (NIC serialize, switch enqueue/forward, socket
  wake, receive pause), so the simulator itself gets materially faster
  per delivered message; this is the speedup a real daemon's syscall
  amortization models.

Results land in ``bench_results/jumbo_sweep.json``.  The acceptance
bar: at the default 8850-byte cap the sim-path throughput must be at
least 1.5x the uncoalesced baseline, with identical modeled goodput.
"""

import json
import os
import time

from repro.core import DEFAULT_JUMBO_BYTES, ProtocolConfig
from repro.net import GIGABIT
from repro.sim import SPREAD, SimCluster

RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")
REPEATS = 2

#: Coalescing caps swept, in bytes; None disables (the baseline).
CAPS = (None, 4425, DEFAULT_JUMBO_BYTES, 17700, 35400)

N_NODES = 4
OFFERED_BPS = 1100e6  # just past gigabit line rate: every flush bursts
DURATION_S = 0.05
WARMUP_S = 0.01
PAYLOAD_SIZE = 1350


def _run_once(cap):
    config = ProtocolConfig.accelerated(
        accelerated_window=20, jumbo_datagram_bytes=cap)
    delivered = [0]
    cluster = SimCluster(
        N_NODES, GIGABIT, SPREAD, config, seed=1,
        payload_size=PAYLOAD_SIZE,
        deliver_callback=lambda p, m: delivered.__setitem__(
            0, delivered[0] + 1),
    )
    cluster.inject_at_rate(OFFERED_BPS, duration_s=DURATION_S)
    start = time.process_time()
    result = cluster.run(DURATION_S, warmup_s=WARMUP_S,
                         offered_bps=OFFERED_BPS)
    cpu_s = time.process_time() - start
    frames = sum(n.nic.frames_sent for n in cluster.nodes.values())
    return {
        "cap_bytes": cap,
        "achieved_mbps": result.achieved_bps / 1e6,
        "latency_mean_ms": result.latency.mean_s * 1e3,
        "latency_p99_ms": result.latency.p99_s * 1e3,
        "frames_sent": frames,
        "delivered": delivered[0],
        "sim_cpu_s": cpu_s,
        "delivered_per_cpu_s": delivered[0] / cpu_s if cpu_s > 0 else 0.0,
    }


def _run_cap(cap):
    """Best-of-REPEATS on CPU throughput; modeled metrics are identical
    across repeats (the simulator is deterministic)."""
    best = None
    for _ in range(REPEATS):
        row = _run_once(cap)
        if best is None or row["delivered_per_cpu_s"] > best["delivered_per_cpu_s"]:
            best = row
    return best


def test_jumbo_sweep():
    rows = [_run_cap(cap) for cap in CAPS]
    baseline = rows[0]
    by_cap = {row["cap_bytes"]: row for row in rows}
    default = by_cap[DEFAULT_JUMBO_BYTES]

    record = {
        "benchmark": "jumbo_sweep",
        "n_nodes": N_NODES,
        "profile": "spread",
        "link": GIGABIT.name,
        "payload_size": PAYLOAD_SIZE,
        "offered_mbps": OFFERED_BPS / 1e6,
        "duration_s": DURATION_S,
        "warmup_s": WARMUP_S,
        "repeats": REPEATS,
        "default_cap_bytes": DEFAULT_JUMBO_BYTES,
        "sim_path_speedup_at_default": round(
            default["delivered_per_cpu_s"] / baseline["delivered_per_cpu_s"], 3),
        "sweep": [
            {**row,
             "achieved_mbps": round(row["achieved_mbps"], 1),
             "latency_mean_ms": round(row["latency_mean_ms"], 4),
             "latency_p99_ms": round(row["latency_p99_ms"], 4),
             "sim_cpu_s": round(row["sim_cpu_s"], 4),
             "delivered_per_cpu_s": round(row["delivered_per_cpu_s"])}
            for row in rows
        ],
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "jumbo_sweep.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    # Up to the default cap, coalescing is pure transport framing: the
    # modeled goodput must not move.  (Past it the sweep deliberately
    # shows the downside — many-fragment bursts cost goodput and
    # latency, which is why 8850 is the default and not 35400.)
    import pytest
    for row in rows[1:]:
        if row["cap_bytes"] <= DEFAULT_JUMBO_BYTES:
            assert row["achieved_mbps"] == \
                pytest.approx(baseline["achieved_mbps"], rel=0.05), record

    # Materially fewer datagrams on the wire at the default cap...
    assert default["frames_sent"] < baseline["frames_sent"] * 0.7, record

    # ...and the acceptance bar: >= 1.5x sim-path throughput.
    assert default["delivered_per_cpu_s"] >= \
        1.5 * baseline["delivered_per_cpu_s"], record
