"""The verdict rule of ``scripts/perf_ab.py`` on canned runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "scripts", "perf_ab.py")
_SPEC = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_gain_needs_nine_of_ten_pairs_and_a_shift_beyond_the_parent_iqr():
    change = [p * 1.2 for p in PARENT]
    out = perf_ab.verdict(PARENT, change, "higher", 0.25)
    assert out["verdict"] == "gain"
    assert (out["wins"], out["losses"], out["ties"]) == (10, 0, 0)
    assert out["ratio"] == pytest.approx(1.2)
    # Nine pairs, all won: too few runs to claim anything.
    assert (perf_ab.verdict(PARENT[:9], change[:9], "higher", 0.25)["verdict"]
            == "within bound")
    # Two lost pairs: no longer nine tenths, whatever the medians say.
    change[0] = change[1] = 90.0
    assert perf_ab.verdict(PARENT, change, "higher", 0.25)["verdict"] != "gain"
    # Every pair won, but by less than the parent's own spread.
    nudged = [p + 0.5 for p in PARENT]
    out = perf_ab.verdict(PARENT, nudged, "higher", 0.25)
    assert out["wins"] == 10 and out["verdict"] == "within bound"


def test_direction_follows_better():
    latency = [p * 0.8 for p in PARENT]
    assert perf_ab.verdict(PARENT, latency, "lower", 0.25)["verdict"] == "gain"
    out = perf_ab.verdict(PARENT, latency, "higher", 0.25)
    assert out["wins"] == 0 and out["verdict"] == "within bound"
    slower = [p * 0.7 for p in PARENT]
    assert (perf_ab.verdict(PARENT, slower, "higher", 0.25)["verdict"]
            == "regression")
    assert (perf_ab.verdict(PARENT, [p * 1.3 for p in PARENT], "lower",
                            0.25)["verdict"] == "regression")


def test_ties_count_for_neither_side_and_wide_spread_is_unresolved():
    out = perf_ab.verdict(PARENT, list(PARENT), "higher", 0.25)
    assert (out["wins"], out["losses"], out["ties"]) == (0, 0, 10)
    assert out["verdict"] == "within bound"
    noisy = [60.0, 140.0] * 5
    out = perf_ab.verdict(noisy, noisy[::-1], "higher", 0.25)
    assert out["verdict"] == "unresolved"


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        perf_ab.verdict([1.0, 2.0], [1.0], "higher", 0.25)
    with pytest.raises(ValueError):
        perf_ab.verdict([], [], "higher", 0.25)
