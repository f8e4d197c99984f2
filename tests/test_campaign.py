"""Campaign runner: clean runs, determinism, violation catching."""

import functools
import hashlib
import json
import os
import re

from repro.sim import CampaignOptions, FaultSchedule, campaign, run_campaign
from repro.sim.campaign import corrupt_first_log, replay_repro


def _options(tmp_path, **overrides):
    params = dict(
        seed=5,
        scenarios=1,
        n_nodes=3,
        out_dir=str(tmp_path),
    )
    params.update(overrides)
    return CampaignOptions(**params)


#: sha256 of the tiny campaign's summary file: the gossip, tuner and
#: gather constants the campaign's nodes run with are pinned by it.
TINY_CAMPAIGN_SHA256 = (
    "87f70b9f433d8ba9e3d60ea05ae16676514c0e52ff6786694934572a435e1582"
)


def test_tiny_campaign_clean_and_byte_identical(tmp_path):
    options = _options(tmp_path)
    summary = run_campaign(options)
    assert summary["failures"] == 0
    for scenario in summary["results"]:
        assert len(scenario["schedule"]) >= 1
        for run in scenario["runs"]:
            assert run["converged"]
            assert run["violations"] == []
            assert run["repro"] is None
            # Workload actually flowed (cleanup-restarted incarnations
            # may legitimately deliver nothing: the workload is stopped
            # before they boot).
            assert all(
                count > 0 for key, count in run["delivered"].items()
                if key.endswith(".0")
            )
    path = summary["summary_path"]
    with open(path, "rb") as handle:
        first = handle.read()
    # Same seed, fresh run: the summary file is byte-identical.
    run_campaign(_options(tmp_path))
    with open(path, "rb") as handle:
        second = handle.read()
    assert first == second
    assert hashlib.sha256(first).hexdigest() == TINY_CAMPAIGN_SHA256


def test_injected_violation_caught_and_shrunk(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "ACCELERATED_WINDOWS", (2,))
    options = _options(tmp_path, corrupt_logs=corrupt_first_log)
    summary = run_campaign(options)
    assert summary["failures"] == 1
    run = summary["results"][0]["runs"][0]
    assert run["violations"]
    assert run["repro"] is not None and os.path.exists(run["repro"])
    with open(run["repro"]) as handle:
        repro = json.load(handle)
    assert repro["violations"] == run["violations"]
    # The corruption fails regardless of faults, so shrinking strips the
    # schedule entirely — the minimal failing schedule.
    shrunk = FaultSchedule.from_jsonable(repro["schedule"])
    original = FaultSchedule.from_jsonable(repro["original_schedule"])
    assert len(shrunk) < len(original)
    assert len(shrunk) == 0
    # A violation message names a concrete axiom, not just "failed".
    assert any("seq" in v or "synchrony" in v or "contiguous" in v
               for v in run["violations"])


def test_replay_repro_returns_the_recorded_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(campaign, "ACCELERATED_WINDOWS", (2,))
    summary = run_campaign(_options(
        tmp_path, corrupt_logs=corrupt_first_log,
    ))
    path = summary["results"][0]["runs"][0]["repro"]
    with open(path) as handle:
        recorded = json.load(handle)["violations"]
    # The shrunk schedule is empty: the faults alone replay clean ...
    assert replay_repro(path) == (True, [])
    # ... and under the same log corruption the replay reports the
    # violations the file records; only the delivered sequences they
    # quote differ, since the file's come from the unshrunk run.
    monkeypatch.setattr(
        campaign, "CampaignOptions",
        functools.partial(CampaignOptions, corrupt_logs=corrupt_first_log),
    )
    converged, violations = replay_repro(path)
    assert converged

    def unquoted(messages):
        return [re.sub(r"\[[\d, ]*\]", "[...]", m) for m in messages]

    assert violations and unquoted(violations) == unquoted(recorded)
