"""Is the benchmark steady enough for its own bounds?

Runs every workload's untraced pass ``--runs`` times per set, each run
with another seed, and for each end-to-end metric prints the median and
the distance between the first and third quartile as a share of the
median, beside the metric's bound.  With ``--sets 2`` it also says by
how much the second set's median is worse than the first's.  A spread
above a third of the bound is marked ``wide``; above the bound,
``OVER``.

    python3 perf/steadiness.py [--runs 10] [--sets 2] [--workload W ...]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

import run


def quartile_spread(values: List[float]) -> float:
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def measure_set(workload: str, seeds: List[int], seconds: float
                ) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=run.CHILD_TIMEOUT_S,
            check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            raise RuntimeError("%s seed %d: incorrect run" % (workload, seed))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def main(argv: List[str]) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    report = {}
    worst = 0
    for workload in workloads:
        sets = [measure_set(workload,
                            list(range(1 + k * args.runs,
                                       1 + (k + 1) * args.runs)), seconds)
                for k in range(args.sets)]
        report[workload] = sets
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = -1.0 if metric["better"] == "higher" else 1.0
            line = "  %-16s" % name
            for values in sets:
                spread = quartile_spread(values[name])
                mark = ("OVER" if spread > bound
                        else "wide" if spread > bound / 3 else "ok")
                if name != "setup_s":
                    worst = max(worst, ("ok", "wide", "OVER").index(mark))
                line += "  median %12.4f spread %6.3f %-4s" % (
                    statistics.median(values[name]), spread, mark)
            if len(sets) == 2:
                first, second = (statistics.median(s[name]) for s in sets)
                worse = sign * (second - first) / first
                worst = max(worst, 2 if worse > bound else 0)
                line += "  second worse by %+.3f" % worse
            print(line + "  bound %.2f" % bound)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.OUT_DIR, "steadiness.json"), "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 1 if worst == 2 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
