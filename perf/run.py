"""The repo's benchmark: four workloads, end to end and layer by layer.

Two ways to run it, both from the root of a checkout:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one pass, in this process.  ``--trace 0`` measures the
    end-to-end metrics with nothing attached; ``--trace 1`` measures the
    per-layer metrics (forwarding proxies or cProfile, see README.md).
    Prints every metric by name and unit, then — as the last line — one
    JSON object with ``correct``, ``attempted``, ``failed``, ``metrics``.

``python3 perf/run.py [--seed N] [--smoke]``
    Every workload, each pass in its own child process; prints all of
    it, flags ``host_noisy`` passes and writes ``perf/out/results.json``.

``--selftest`` corrupts one receiver's delivery log before it is checked;
the checker must catch it, and the command then exits with code 3.

Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = measure.OUT_DIR

#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 9
#: Exit code of a selftest whose corruption was caught.
SELFTEST_CAUGHT = 3
#: Exit code when receivers disagree on the order.
ORDER_DISAGREEMENT = 2
CHILD_TIMEOUT_S = 170.0

Pass = Tuple[Any, Dict[str, float], Dict[str, Any]]


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_module(workload: str):
    """The module that owns ``workload``; imports ``repro`` lazily."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perf/run.py: no src/repro beside perf/ — nothing to measure")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if workload.startswith("udp_"):
        import udp
        return udp
    if workload == "sim_10g":
        import sim10g
        return sim10g
    if workload == "loop_spread":
        import spread
        return spread
    sys.exit("perf/run.py: unknown workload %r" % workload)


# -- set-up time ---------------------------------------------------------------------

def setup_seconds(workload: str, seed: int, probes: int) -> float:
    """Median wall time from starting a fresh interpreter to the workload's
    system being ready for its first submit."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
        if line.strip() != "READY" or child.returncode != 0:
            raise RuntimeError("set-up probe for %s failed" % workload)
        samples.append(ready - start)
    return measure.median_of_segments(samples)


def setup_probe(workload: str, seed: int) -> None:
    module = workload_module(workload)
    system = module.setup(seed)
    print("READY", flush=True)
    module.teardown(system)


# -- the two passes --------------------------------------------------------------------

def untraced_pass(args) -> Pass:
    """End-to-end metrics, nothing attached to the program."""
    module = workload_module(args.workload)
    setup_s = setup_seconds(args.workload, args.seed,
                            1 if args.smoke else SETUP_PROBES)
    calib_before = measure.calib_mops()
    check, metrics, info, rates = module.untraced(
        args.workload, args.seed, args.seconds, args.smoke, args.selftest)
    calib_after = measure.calib_mops()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = measure.peak_rss_mb()
    info.update({
        "segments": len(rates), "segment_msgs_per_s": rates,
        "segment_spread": measure.segment_spread(rates),
        "calib_mops_before": calib_before, "calib_mops_after": calib_after,
        "fail_share": check.fail_share,
    })
    return check, metrics, info


def traced_pass(args) -> Pass:
    """Per-layer metrics: an untraced reference part, then one traced
    segment; the ratio of their rates is ``trace.overhead_ratio``."""
    module = workload_module(args.workload)
    calib_before = measure.calib_mops()
    check, metrics, reference_rates, traced_rate, seams_missing = module.traced(
        args.workload, args.seed, args.seconds, args.smoke, args.selftest)
    reference_rate = measure.median_of_segments(reference_rates)
    metrics.update({
        "driver.segment_spread": measure.segment_spread(reference_rates),
        "driver.fail_share": check.fail_share,
        "host.calib_mops_before": calib_before,
        "host.calib_mops_after": measure.calib_mops(),
        "trace.overhead_ratio": traced_rate / reference_rate,
        "trace.seams_missing": seams_missing,
    })
    info = {"reference_msgs_per_s": reference_rate,
            "traced_msgs_per_s": traced_rate}
    return check, metrics, info


# -- one workload, one pass: the contract the driver runs -----------------------------

def run_one(args) -> int:
    spec = load_spec()
    started = time.perf_counter()
    cpu = measure.pin_to_one_cpu()
    check, measured, info = (traced_pass if args.trace else untraced_pass)(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError("metrics not in BENCHMARK.json: %s" % sorted(unknown))
    metrics = {}
    not_on_path = []
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            if not args.trace:
                raise RuntimeError("end-to-end metric %s not measured" % name)
            not_on_path.append(name)
        # A layer that is not on this workload's path did no work: 0.
        value = measured.get(name, 0.0)
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print("%-32s %16.6f %s" % (name, value, metric["unit"]))
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "msgs_per_s")
    noisy = None
    if not args.trace:
        noisy = (measure.calib_differs(info["calib_mops_before"],
                                       info["calib_mops_after"])
                 or info["segment_spread"] > bound)
    info.update({
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "pinned_to_cpu": cpu,
        "host_noisy": noisy, "wall_s": time.perf_counter() - started,
        "order_ok": check.order_ok, "detail": check.detail,
        "not_on_path": not_on_path,
    })
    print("info " + json.dumps(info))
    if check.detail:
        print("check: " + check.detail, file=sys.stderr)
    print(json.dumps({
        "correct": check.correct, "attempted": check.attempted,
        "failed": check.failed, "metrics": metrics,
    }))
    if args.selftest:
        if check.correct:
            print("selftest: CHECKER BROKEN, corruption passed", file=sys.stderr)
            return 0
        return SELFTEST_CAUGHT
    return 0 if check.order_ok else ORDER_DISAGREEMENT


# -- every workload, both passes, each in a child ----------------------------------------

def run_child(workload: str, trace: int, args) -> Tuple[int, Dict, Dict]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if args.selftest:
        command.append("--selftest")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.splitlines()
    sys.stdout.write("".join(
        "  " + line + "\n" for line in lines[:-1] if not line.startswith("info ")))
    info = next((json.loads(line[5:]) for line in lines
                 if line.startswith("info ")), {})
    result = json.loads(lines[-1]) if lines else {}
    return done.returncode, result, info


def run_all(args) -> int:
    spec = load_spec()
    if args.selftest:
        workloads, passes = ["udp_sat", "loop_spread"], (0,)
    else:
        workloads, passes = [w["name"] for w in spec["workloads"]], (0, 1)
    results: Dict[str, Any] = {}
    exit_code = 0
    caught = 0
    for workload in workloads:
        started = time.perf_counter()
        entry: Dict[str, Any] = {}
        for trace in passes:
            print("%s --trace %d" % (workload, trace))
            code, result, info = run_child(workload, trace, args)
            entry["traced" if trace else "untraced"] = {
                "exit_code": code, "result": result, "info": info}
            caught += code == SELFTEST_CAUGHT
            if code != 0 or not result.get("correct"):
                exit_code = exit_code or code or 1
        entry["wall_s"] = time.perf_counter() - started
        noisy = entry["untraced"]["info"].get("host_noisy")
        print("%s: %.1f s wall%s" % (
            workload, entry["wall_s"],
            "; HOST NOISY, end-to-end values unresolved" if noisy else ""))
        results[workload] = entry
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as handle:
        json.dump({"seed": args.seed, "smoke": args.smoke,
                   "workloads": results}, handle, indent=1)
        handle.write("\n")
    if args.selftest:
        print("selftest: corruption caught on %d of %d workloads"
              % (caught, len(workloads)))
        return SELFTEST_CAUGHT if caught == len(workloads) else 0
    return exit_code


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 s warm-up, one 1 s segment, 0.02 sim-s, 4k multicasts")
    parser.add_argument("--selftest", action="store_true",
                        help="corrupt a delivery log; exit 3 when caught")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.selftest:
        args.smoke = True
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
