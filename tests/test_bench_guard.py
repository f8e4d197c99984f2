"""The benchmark regression guard: comparisons, errors, CLI exit codes."""

import json

import pytest

from repro.bench import guard


def write_records(directory, kernel=None, codec=None, churn=None, obs=None,
                  multiring=None):
    directory.mkdir(parents=True, exist_ok=True)
    kernel_record = {
        "events_per_sec_best": 3_000_000,
        "sim_msgs_per_cpu_s_best": 12_000,
    }
    kernel_record.update(kernel or {})
    codec_record = {
        "msgs_per_sec": {
            "wire_encode": 400_000,
            "wire_decode": 450_000,
            "wire_encode_token": 480_000,
            "wire_decode_token": 480_000,
        },
    }
    if codec:
        codec_record["msgs_per_sec"].update(codec)
    churn_record = {
        "metrics": {
            "crash_convergence_rate_hz": 8.0,
            "rejoin_convergence_rate_hz": 50.0,
            "ctrl_traffic_headroom": 5.0,
        },
    }
    if churn:
        churn_record["metrics"].update(churn)
    obs_record = {
        "sim_msgs_per_cpu_s_off_best": 12_000,
        "sim_msgs_per_cpu_s_on_best": 11_000,
        "tracing_throughput_ratio": 0.93,
    }
    obs_record.update(obs or {})
    multiring_record = {
        "metrics": {
            "aggregate_msgs_per_s_m4": 118_000.0,
            "scaling_x_m4": 4.0,
            "latency_flatness_m4": 0.99,
        },
    }
    if multiring:
        multiring_record["metrics"].update(multiring)
    (directory / "kernel.json").write_text(json.dumps(kernel_record))
    (directory / "codec.json").write_text(json.dumps(codec_record))
    (directory / "churn_convergence.json").write_text(
        json.dumps(churn_record)
    )
    (directory / "obs_overhead.json").write_text(json.dumps(obs_record))
    (directory / "multiring_scaling.json").write_text(
        json.dumps(multiring_record)
    )


def test_identical_records_pass(tmp_path):
    write_records(tmp_path / "base")
    write_records(tmp_path / "fresh")
    regressions, lines = guard.compare(
        str(tmp_path / "base"), str(tmp_path / "fresh"))
    assert regressions == []
    assert sum(1 for _ in lines) == 15  # every guarded metric reported


def test_slowdown_within_tolerance_passes(tmp_path):
    write_records(tmp_path / "base")
    write_records(tmp_path / "fresh", codec={"wire_decode": 380_000})  # -16%
    regressions, _ = guard.compare(
        str(tmp_path / "base"), str(tmp_path / "fresh"))
    assert regressions == []


def test_regression_past_tolerance_fails(tmp_path):
    write_records(tmp_path / "base")
    write_records(tmp_path / "fresh",
                  kernel={"events_per_sec_best": 2_000_000},  # -33%
                  codec={"wire_decode": 300_000})             # -33%
    regressions, _ = guard.compare(
        str(tmp_path / "base"), str(tmp_path / "fresh"))
    assert len(regressions) == 2
    assert any("events_per_sec_best" in r for r in regressions)
    assert any("wire_decode" in r for r in regressions)


def test_improvement_is_not_a_failure(tmp_path):
    write_records(tmp_path / "base")
    write_records(tmp_path / "fresh",
                  kernel={"events_per_sec_best": 9_000_000})
    regressions, lines = guard.compare(
        str(tmp_path / "base"), str(tmp_path / "fresh"))
    assert regressions == []
    assert any("improved" in line for line in lines)


def test_tighter_tolerance_flags_smaller_slips(tmp_path):
    write_records(tmp_path / "base")
    write_records(tmp_path / "fresh", codec={"wire_decode": 400_000})  # -11%
    regressions, _ = guard.compare(
        str(tmp_path / "base"), str(tmp_path / "fresh"), tolerance=0.05)
    assert len(regressions) == 1


def test_tracing_ratio_regression_fails(tmp_path):
    write_records(tmp_path / "base")
    # Throughputs hold but the on/off ratio collapses: tracing got
    # expensive even though the box got no slower.
    write_records(tmp_path / "fresh",
                  obs={"sim_msgs_per_cpu_s_on_best": 8_000,
                       "tracing_throughput_ratio": 0.69})     # -26%
    regressions, _ = guard.compare(
        str(tmp_path / "base"), str(tmp_path / "fresh"))
    assert len(regressions) == 2
    assert any("tracing_throughput_ratio" in r for r in regressions)


def test_missing_fresh_record_is_an_error(tmp_path):
    write_records(tmp_path / "base")
    (tmp_path / "fresh").mkdir()
    with pytest.raises(guard.GuardError, match="missing record"):
        guard.compare(str(tmp_path / "base"), str(tmp_path / "fresh"))


def test_missing_metric_is_an_error(tmp_path):
    write_records(tmp_path / "base")
    write_records(tmp_path / "fresh")
    record = json.loads((tmp_path / "fresh" / "kernel.json").read_text())
    del record["sim_msgs_per_cpu_s_best"]
    (tmp_path / "fresh" / "kernel.json").write_text(json.dumps(record))
    with pytest.raises(guard.GuardError, match="not found"):
        guard.compare(str(tmp_path / "base"), str(tmp_path / "fresh"))


def test_cli_exit_codes(tmp_path, capsys):
    write_records(tmp_path / "base")
    write_records(tmp_path / "fresh")
    ok = guard.main(["--baseline", str(tmp_path / "base"),
                     "--fresh", str(tmp_path / "fresh")])
    assert ok == 0
    assert "bench-guard passed" in capsys.readouterr().out

    write_records(tmp_path / "fresh", codec={"wire_decode": 100_000})
    failed = guard.main(["--baseline", str(tmp_path / "base"),
                         "--fresh", str(tmp_path / "fresh")])
    assert failed == 1
    assert "REGRESSION" in capsys.readouterr().out

    missing = guard.main(["--baseline", str(tmp_path / "base"),
                          "--fresh", str(tmp_path / "nowhere")])
    assert missing == 2
