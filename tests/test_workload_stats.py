"""Tests for the stats series containers."""

from repro.core import Service
from repro.stats import Figure, Series, SeriesPoint


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


def test_latency_at_exact_point():
    series = make_series([(100, 100, 50, False)])
    assert series.latency_at(100) == 50
    assert series.latency_at(200) is None


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

