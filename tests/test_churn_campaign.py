"""Churn campaign smoke: EVS-checked endurance runs plus the sweep.

`make churn-smoke` (CI) runs this file and then one full 50-node
scenario through the CLI; keeping the pytest side small-N keeps the
suite fast while still exercising every code path the big campaigns
use: schedule generation, recurring fault execution, restart/rejoin,
checking, and the byte-stable bench record.
"""

import hashlib
import json

from repro.sim import churn
from repro.sim.churn import (
    FLAP_PID,
    ChurnOptions,
    churn_schedule,
    convergence_sweep,
    run_churn_scenario,
)
from repro.records import write_record
from repro.sim.faults import Churn, FaultSchedule, Flap


def _small_options(monkeypatch, **overrides):
    monkeypatch.setattr(churn, "CHURN_PERIOD_S", 0.25)
    monkeypatch.setattr(churn, "CONVERGE_TIMEOUT_S", 4.0)
    base = dict(seed=3, n_nodes=8, churn_events=3)
    base.update(overrides)
    return ChurnOptions(**base)


#: sha256 of each small churn summary (``json.dumps(..., sort_keys=True)``),
#: gossip detector and probe path: byte-for-byte pins of the membership
#: side under churn.
GOSSIP_SUMMARY_SHA256 = (
    "97dc25206bb56430d30c378f2b23f54b20192ffac77437d74af4f5bfc5393bc5"
)
PROBE_SUMMARY_SHA256 = (
    "8e46be744e054fb12b94206df948b552a208c6b8931ee57ac718dcf858d43104"
)


def _digest(summary):
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


def test_churn_scenario_smoke_gossip(monkeypatch):
    summary = run_churn_scenario(_small_options(monkeypatch))
    assert summary["converged"]
    assert summary["violations"] == []
    assert summary["total_restarts"] >= 1
    assert summary["delivered_total"] > 0
    assert summary["ctrl"]["ctrl_frames_per_node_per_s"] > 0
    assert _digest(summary) == GOSSIP_SUMMARY_SHA256


def test_churn_scenario_smoke_probe_path(monkeypatch):
    # The pre-gossip detection path must survive the same churn load.
    summary = run_churn_scenario(_small_options(monkeypatch, gossip=False))
    assert summary["converged"]
    assert summary["violations"] == []
    assert _digest(summary) == PROBE_SUMMARY_SHA256


def test_churn_scenario_is_deterministic(monkeypatch):
    first = run_churn_scenario(_small_options(monkeypatch))
    second = run_churn_scenario(_small_options(monkeypatch))
    assert first == second


def test_churn_schedule_contains_generator_and_flapper(monkeypatch):
    schedule = churn_schedule(_small_options(monkeypatch))
    kinds = sorted(type(e).__name__ for e in schedule.events)
    assert kinds == ["Churn", "Flap"]
    generator = next(e for e in schedule.events if isinstance(e, Churn))
    assert FLAP_PID not in generator.pids
    # The summary embeds the schedule in serialized form; it must
    # round-trip back to the authored events.
    rebuilt = FaultSchedule.from_jsonable(schedule.to_jsonable())
    assert rebuilt.events == schedule.events


def test_convergence_sweep_structure_and_rates():
    record = convergence_sweep(ns=(5,), seed=2, cycles=1)
    assert record["schema"] == 1
    (entry,) = record["sweep"]
    assert entry["n_nodes"] == 5
    for mode in ("gossip", "probes"):
        stats = entry[mode]
        assert stats["crash_convergence_s"] > 0
        assert stats["rejoin_convergence_s"] > 0
        assert stats["steady"]["recv_per_node_hz"] > 0
    for value in record["metrics"].values():
        assert value > 0


def test_write_record_is_byte_stable(tmp_path):
    record = {"schema": 1, "metrics": {"b": 2.0, "a": 1.0}, "ns": [5]}
    path_a = write_record(record, str(tmp_path / "a.json"))
    path_b = write_record(dict(reversed(list(record.items()))),
                          str(tmp_path / "b.json"))
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        blob_a, blob_b = fa.read(), fb.read()
    assert blob_a == blob_b
    assert blob_a.endswith(b"\n")
    assert json.loads(blob_a) == record
