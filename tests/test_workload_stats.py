"""Tests for the stats series containers."""

import pytest

from repro.core import Service
from repro.stats import Figure, Series, SeriesPoint, improvement


# ---------------------------------------------------------------------------
# Series / Figure
# ---------------------------------------------------------------------------

def make_series(points):
    series = Series("test")
    for offered, achieved, latency, saturated in points:
        series.add(SeriesPoint(offered, achieved, latency, saturated))
    return series


def test_max_stable_throughput_ignores_saturated():
    series = make_series([
        (100, 100, 50, False),
        (500, 500, 80, False),
        (900, 700, 9000, True),
    ])
    assert series.max_stable_throughput() == 500
    assert series.max_achieved_throughput() == 700


def test_max_throughput_under_latency():
    series = make_series([
        (100, 100, 50, False),
        (500, 500, 200, False),
        (800, 800, 1500, False),
    ])
    assert series.max_throughput_under_latency(1000) == 500
    assert series.max_throughput_under_latency(2000) == 800
    assert series.max_throughput_under_latency(10) == 0.0


def test_latency_at_exact_point():
    series = make_series([(100, 100, 50, False)])
    assert series.latency_at(100) == 50
    assert series.latency_at(200) is None


def test_interpolated_latency():
    series = make_series([
        (100, 100, 100, False),
        (300, 300, 300, False),
    ])
    assert series.interpolated_latency(200) == pytest.approx(200)
    assert series.interpolated_latency(50) == 100  # clamps below
    assert series.interpolated_latency(400) is None  # beyond range


def test_figure_markdown_contains_all_series():
    figure = Figure("figX", "demo")
    figure.series_for("a").add(SeriesPoint(100, 100, 42, False))
    figure.series_for("b").add(SeriesPoint(100, 90, 55, True))
    markdown = figure.to_markdown()
    assert "figX" in markdown and "demo" in markdown
    assert "42 us" in markdown
    assert "SAT" in markdown


def test_figure_csv_roundtrippable():
    figure = Figure("figY", "demo")
    figure.series_for("a").add(SeriesPoint(100, 99, 42.5, False))
    csv = figure.to_csv()
    lines = csv.splitlines()
    assert lines[0].startswith("label,")
    assert lines[1].split(",")[0] == "a"


def test_improvement_helper():
    assert improvement(100, 150) == pytest.approx(0.5)
    assert improvement(200, 100) == pytest.approx(-0.5)
    assert improvement(0, 10) == 0.0
