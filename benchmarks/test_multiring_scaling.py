"""Multi-ring scale-out benchmark: aggregate throughput vs ring count.

Runs the fixed per-ring workload at M in {1, 2, 4, 8} through
:func:`repro.multiring.bench.scaling_sweep` and writes the guarded
``multiring_scaling.json`` record.  The headline claims are asserted
here, not just recorded:

* near-linear scale-out — M=4 delivers >= 3.0x the M=1 aggregate
  delivered-message rate (the issue's acceptance floor; the measured
  value is ~4.0x because the rings share nothing);
* flat latency — the M=4 single-group median agreed latency stays
  within 15% of the M=1 baseline (flatness ratio >= 0.85);
* ordering is intact at every point — both the per-ring EVS oracles
  and the cross-ring merge checker must report zero violations, so a
  throughput number can never come from a run that broke the order.

Everything measured is simulated time, so the record is deterministic
for the seed and safe to guard at the normal bench-guard tolerance.
"""

import json
import os

from repro.multiring.bench import DEFAULT_MS, scaling_sweep, total_violations
from repro.records import write_record

RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")

SCALING_FLOOR_X_M4 = 3.0
LATENCY_FLATNESS_FLOOR = 0.85


def test_multiring_scaling_record():
    record = scaling_sweep(ms=DEFAULT_MS, seed=1)

    assert total_violations(record) == 0, (
        "ordering violations during the scaling sweep: %s"
        % json.dumps(record["sweep"], indent=2)
    )
    metrics = record["metrics"]
    assert metrics["scaling_x_m4"] >= SCALING_FLOOR_X_M4, (
        "M=4 aggregate throughput scaled only %.2fx over M=1 "
        "(floor %.1fx)" % (metrics["scaling_x_m4"], SCALING_FLOOR_X_M4)
    )
    assert metrics["latency_flatness_m4"] >= LATENCY_FLATNESS_FLOOR, (
        "M=4 group latency drifted beyond 15%% of the M=1 baseline: "
        "flatness %.3f" % metrics["latency_flatness_m4"]
    )
    # No point may sit at saturation: the sweep measures sharding, and a
    # saturated ring would turn the latency axis into queueing noise.
    for entry in record["sweep"]:
        assert entry["saturated_rings"] == 0, entry
        assert entry["max_ring_lag_rounds"] <= 2, entry

    path = write_record(
        record, os.path.join(RESULTS_DIR, "multiring_scaling.json")
    )
    assert os.path.exists(path)
