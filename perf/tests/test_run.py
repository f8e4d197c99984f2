"""End to end: the command itself, in smoke size."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import run

RUN = [sys.executable, os.path.join(run.HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def smoke():
    started = time.perf_counter()
    done = subprocess.run(RUN + ["--smoke", "--seed", "3"],
                          stdout=subprocess.PIPE, text=True, timeout=120)
    wall_s = time.perf_counter() - started
    with open(os.path.join(run.OUT_DIR, "results.json")) as handle:
        return done, wall_s, json.load(handle)


def test_smoke_runs_every_workload_and_both_passes_in_a_minute(smoke):
    done, wall_s, results = smoke
    assert done.returncode == 0, done.stdout[-2000:]
    assert wall_s < 60.0
    spec = run.load_spec()
    assert list(results["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in results["workloads"].items():
        assert name + ": " in done.stdout, "per-workload wall time is printed"
        for which, wanted in (("untraced", spec["end_to_end"]),
                              ("traced", spec["per_layer"])):
            result = entry[which]["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            for metric in wanted:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"]
                assert isinstance(got["value"], (int, float))
        untraced = entry["untraced"]["result"]["metrics"]
        assert all(m["value"] > 0 for m in untraced.values()), untraced
        assert entry["traced"]["result"]["metrics"][
            "trace.seams_missing"]["value"] == 0


def test_every_per_layer_metric_is_measured_by_some_workload(smoke):
    _, _, results = smoke
    unmeasured = None
    for entry in results["workloads"].values():
        filled = set(entry["traced"]["info"]["not_on_path"])
        unmeasured = filled if unmeasured is None else unmeasured & filled
    assert unmeasured == set()


def test_traced_passes_close(smoke):
    _, _, results = smoke
    for name, entry in results["workloads"].items():
        metrics = {k: v["value"]
                   for k, v in entry["traced"]["result"]["metrics"].items()}
        if name.startswith("udp_"):
            total = (metrics["core.busy_share"]
                     + metrics["emulation.poll_wait_share"]
                     + metrics["emulation.send_share"]
                     + metrics["emulation.loop_other_share"])
            assert abs(total - 1.0) <= 0.05, (name, total)
            assert os.path.exists(
                os.path.join(run.OUT_DIR, name + ".spans.jsonl"))
        else:
            total = sum(v for k, v in metrics.items()
                        if k.endswith(".self_share"))
            assert abs(total - 1.0) <= 0.02, (name, total)
        assert metrics["trace.overhead_ratio"] > 0


def test_selftest_corruption_is_caught_with_a_nonzero_exit():
    done = subprocess.run(RUN + ["--selftest"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=120)
    assert done.returncode == run.SELFTEST_CAUGHT, done.stdout[-2000:]
    assert "corruption caught on 2 of 2 workloads" in done.stdout
    assert "disagrees with node 0" in done.stdout


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "udp_sat", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_benchmark_json_meets_the_contract():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert 1 <= spec["run_seconds"] <= 60
    assert isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 12) < 3420
