"""``scripts/call_census.py`` over a two-function fixture module."""

import importlib.util
import os
import subprocess
import sys

_TESTS = os.path.dirname(os.path.abspath(__file__))
_PATH = os.path.join(os.path.dirname(_TESTS), "scripts", "call_census.py")
_SPEC = importlib.util.spec_from_file_location("call_census", _PATH)
census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(census)

FIXTURE = os.path.join(_TESTS, "fixtures", "census")


def _run(tmp_path, label, code, status=0):
    site = str(tmp_path / "site")
    out = tmp_path / "entered"
    out.mkdir(exist_ok=True)
    census.write_sitecustomize(site)
    env = census.census_env(str(out), FIXTURE, label, site)
    done = subprocess.run([sys.executable, "-c", code], cwd=FIXTURE, env=env)
    assert done.returncode == status
    return census.classify(census.functions_under(FIXTURE),
                           census.load_entered(str(out)))


def test_functions_carry_their_decorated_span():
    functions = census.functions_under(FIXTURE)
    assert [(f.qualname, f.first, f.last) for f in functions] == [
        ("called", 6, 7), ("maybe_called", 10, 12),
    ]


def test_a_function_no_run_enters_is_reported(tmp_path):
    never, only_tests = _run(tmp_path, "use", "import two; two.called()")
    assert [f.qualname for f in never] == ["maybe_called"]
    assert only_tests == []


def test_a_function_only_tests_enter_is_reported_apart(tmp_path):
    _run(tmp_path, "use", "import two; two.called()")
    never, only_tests = _run(tmp_path, "test",
                             "import two; two.maybe_called()")
    assert never == []
    assert [f.qualname for f in only_tests] == ["maybe_called"]


def test_every_run_sweeps_serially(tmp_path, monkeypatch):
    # Pool workers leave through os._exit and would lose their calls.
    monkeypatch.setenv("REPRO_BENCH_PROCESSES", "4")
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    out = tmp_path / "entered"
    env = census.census_env(str(out), FIXTURE, "use", str(tmp_path))
    assert "REPRO_BENCH_PROCESSES" not in env
    # Quick sweeps, and results never land in the tracked bench_results/.
    assert "REPRO_BENCH_FULL" not in env
    assert env["REPRO_BENCH_RESULTS"] == str(tmp_path / "results")


def test_a_function_a_bench_run_enters_leaves_both_lists(tmp_path):
    _run(tmp_path, "test", "import two; two.called(); two.maybe_called()")
    never, only_tests = _run(tmp_path, "bench",
                             "import two; two.maybe_called()")
    assert never == []
    assert [f.qualname for f in only_tests] == ["called"]


def test_the_bench_pass_runs_every_benchmark_once(tmp_path):
    # pytest-benchmark pauses any profile hook while it times a round, so
    # the pass runs each benchmark once, untimed.
    commands = [command for label, command in census.plan(str(tmp_path))
                if label == "bench"]
    assert commands and all("benchmarks/" in command
                            and "--benchmark-disable" in command
                            for command in commands)


def test_threads_started_later_are_counted(tmp_path):
    never, _ = _run(tmp_path, "use", (
        "import threading, two\n"
        "for fn in (two.called, two.maybe_called):\n"
        "    t = threading.Thread(target=fn); t.start(); t.join()\n"
    ))
    assert never == []


def test_a_child_that_clears_the_hook_is_reported(tmp_path, capfd):
    # Calls after the hook is gone are lost, so the run must not pass.
    never, _ = _run(tmp_path, "use",
                    "import sys, two; two.called(); sys.setprofile(None)",
                    status=3)
    assert "the use run replaced the profile hook" in capfd.readouterr().err
    assert [f.qualname for f in never] == ["maybe_called"]
