"""Observability overhead microbenchmark: tracing on vs off.

The lifecycle tracer and metrics registry promise to be no-op-cheap
when disabled: the registry binds *views* over counters the hot paths
already increment, and the drivers' trace hooks cost one ``is not
None`` test per action when no tracer is attached.  This benchmark
pins both claims with numbers:

* ``sim_msgs_per_cpu_s_off_best`` — the representative 8-node sim mix
  (the same workload and unit as ``kernel.json``'s
  ``sim_msgs_per_cpu_s_best``: messages delivered at every node per CPU
  second) with no tracer attached.  The bench guard holds this to the
  same envelope as the kernel record, so "tracing off" can never
  quietly become "tracing cheap".
* ``sim_msgs_per_cpu_s_on_best`` — the identical seeded run with a
  lifecycle tracer attached and every participant/driver stage stamping.
* ``tracing_throughput_ratio`` — on/off; the committed record must
  stay >= 0.90 (<= 10% overhead with tracing ON, the issue's target);
  the in-test floor is looser so slow shared CI boxes don't flake.

Measured with ``time.process_time`` (CPU time, not wall-clock), best
of three, like the other microbenchmarks.
"""

import gc
import json
import os
import time

from repro.core import ProtocolConfig
from repro.net import GIGABIT
from repro.sim import SPREAD
from repro.sim.cluster import SimCluster

RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")
# Five repeats, not three: the ratio divides two best-of measurements,
# so both mins must converge for the recorded overhead to be honest.
REPEATS = 5
DURATION_S = 0.1
OFFERED_BPS = 600e6


def _one_run(traced):
    config = ProtocolConfig.accelerated(
        personal_window=15, accelerated_window=10
    )
    cluster = SimCluster(8, GIGABIT, SPREAD, config, seed=1)
    tracer = cluster.attach_tracer(label="obs-overhead") if traced else None
    cluster.inject_at_rate(OFFERED_BPS, DURATION_S)
    # Drain garbage from the previous run (dead clusters hold reference
    # cycles) so a mid-measurement full collection doesn't land on one
    # sample and not its pair.
    gc.collect()
    start = time.process_time()
    cluster.run(DURATION_S, 0.03, offered_bps=OFFERED_BPS)
    elapsed = time.process_time() - start
    records = len(tracer) if tracer is not None else 0
    delivered = min(node.participant.stats.delivered
                    for node in cluster.nodes.values())
    return cluster.sim.event_count, delivered, elapsed, records


def test_obs_overhead():
    # Warm-up pass so import/alloc costs don't pollute the first sample.
    _one_run(traced=False)

    off_samples = []
    on_samples = []
    trace_records = 0
    for _ in range(REPEATS):
        events, delivered, elapsed, _records = _one_run(traced=False)
        assert delivered > 1_000, "workload too small to measure"
        off_samples.append(delivered / elapsed)
        events_on, delivered_on, elapsed_on, trace_records = _one_run(
            traced=True)
        # Tracing must not change the simulation itself, only observe it.
        assert (events_on, delivered_on) == (events, delivered), (
            "tracer perturbed the event stream: %d vs %d"
            % (events_on, events)
        )
        on_samples.append(delivered_on / elapsed_on)

    off_best = max(off_samples)
    on_best = max(on_samples)
    ratio = on_best / off_best
    record = {
        "benchmark": "obs_overhead",
        "sim_msgs_per_cpu_s_off_best": round(off_best),
        "sim_msgs_per_cpu_s_off_samples": [round(s) for s in off_samples],
        "sim_msgs_per_cpu_s_on_best": round(on_best),
        "sim_msgs_per_cpu_s_on_samples": [round(s) for s in on_samples],
        "tracing_throughput_ratio": round(ratio, 4),
        "tracing_overhead_frac": round(1.0 - ratio, 4),
        "trace_records_per_run": trace_records,
        "msgs_per_run": delivered,
        "events_per_run": events,
        "repeats": REPEATS,
        "sim_duration_s": DURATION_S,
        "offered_bps": OFFERED_BPS,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "obs_overhead.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    assert trace_records > 10_000, "tracer stamped suspiciously little"
    # Loose in-test floor (the guard holds the committed record to the
    # real <= 10% target); CPU-time noise on shared boxes stays under it.
    assert ratio > 0.75, (
        "tracing overhead %.1f%% is past the in-test 25%% floor"
        % ((1.0 - ratio) * 100.0)
    )
    assert off_best > 1_000
