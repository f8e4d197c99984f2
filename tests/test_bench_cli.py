"""Tests for the bench harness plumbing and the CLI."""

import argparse
import json
import os
import re

import pytest

from repro import cli
from repro.bench import (
    REGISTRY,
    headline,
    register,
    render_all,
    reset,
    run_sweep,
    series_label,
    tuned_configs,
)
from repro.bench.experiments import SweepSpec
from repro.bench.runner import persist_figure
from repro.cli import main as cli_main
from repro.core import Service
from repro.net import GIGABIT, TEN_GIGABIT
from repro.sim import LIBRARY
from repro.stats import Figure, SeriesPoint


@pytest.fixture(autouse=True)
def clean_registry():
    reset()
    yield
    reset()


def tiny_spec(**overrides):
    fields = dict(
        figure_id="tiny",
        title="tiny sweep",
        link=GIGABIT,
        service=Service.AGREED,
        payload_size=1350,
        profiles=(LIBRARY,),
        protocols=("accelerated",),
        offered_mbps=(100.0,),
        n_nodes=3,
        duration_s=0.02,
        warmup_s=0.005,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def test_tuned_configs_differ_by_link():
    one_g = tuned_configs(GIGABIT)
    ten_g = tuned_configs(TEN_GIGABIT)
    assert one_g["original"].accelerated_window == 0
    assert one_g["accelerated"].is_accelerated
    assert ten_g["accelerated"].personal_window > one_g["accelerated"].personal_window


def test_series_label_format():
    assert series_label("spread", "original") == "spread/original"


def test_run_sweep_produces_points():
    figure = run_sweep(tiny_spec())
    assert set(figure.labels()) == {"library/accelerated"}
    points = figure.series["library/accelerated"].points
    assert len(points) == 1
    assert points[0].offered_mbps == 100.0
    assert points[0].achieved_mbps > 50


def test_run_sweep_progress_hook():
    seen = []
    run_sweep(tiny_spec(), progress=seen.append)
    assert len(seen) == 1
    assert "tiny" in seen[0]


def test_persist_figure_writes_files(tmp_path):
    figure = run_sweep(tiny_spec(figure_id="tiny2"))
    md_path = persist_figure(figure, directory=str(tmp_path))
    assert os.path.exists(md_path)
    assert os.path.exists(str(tmp_path / "tiny2.csv"))
    content = open(md_path).read()
    assert "tiny2" in content


def test_register_and_render_all():
    figure = Figure("figZ", "registered")
    figure.series_for("a").add(SeriesPoint(10, 10, 5, False))
    register(figure)
    headline("* one headline")
    rendered = render_all()
    assert "figZ" in rendered
    assert "one headline" in rendered
    assert "figZ" in REGISTRY


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for figure_id in ("fig1", "fig4", "fig7"):
        assert figure_id in out


def test_cli_unknown_experiment():
    with pytest.raises(SystemExit):
        cli_main(["nonsense", "--quiet"])


#: The committed CLI surface: per command, every option's strings,
#: default and help text.  Read from the parser rather than from
#: ``--help``, whose wrapping and headings differ across Python versions.
#: A deliberate CLI change re-mints it: ``PYTHONPATH=src python
#: tests/test_bench_cli.py``.
SURFACE_GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "cli",
                              "surface.json")


def cli_surface():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {
        name: [{"option": list(action.option_strings) or [action.dest],
                "default": action.default, "help": action.help}
               for action in parser._actions
               if not isinstance(action, argparse._HelpAction)]
        for name, parser in subparsers.choices.items()
    }


def test_cli_surface_matches_golden():
    with open(SURFACE_GOLDEN) as handle:
        assert cli_surface() == json.load(handle)


@pytest.mark.parametrize("name, rows",
                         [(row[0], row[3]) for row in cli._commands()])
def test_cli_help_lists_exactly_the_table_rows(name, rows, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main([name, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    flags = {flag for flags, _kwargs in rows for flag in flags}
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out)) == (
        {flag for flag in flags if flag.startswith("--")} | {"--help"})
    for positional in (flag for flag in flags if not flag.startswith("-")):
        assert re.search(r"^  %s\b" % positional, out, re.MULTILINE)


def test_cli_campaign_help_is_its_own(capsys):
    with pytest.raises(SystemExit):
        cli_main(["campaign", "--help"])
    out = capsys.readouterr().out
    assert "--scenarios" in out and "--processes" not in out


@pytest.mark.parametrize("argv", [
    ["fig1", "--seed", "5"],
    ["list", "--full"],
    ["campaign", "--processes", "2"],
    ["report", "--scenarios", "3"],
])
def test_cli_rejects_an_option_its_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: %s" % argv[1] in capsys.readouterr().err


if __name__ == "__main__":
    os.makedirs(os.path.dirname(SURFACE_GOLDEN), exist_ok=True)
    with open(SURFACE_GOLDEN, "w") as handle:
        json.dump(cli_surface(), handle, indent=1, sort_keys=True)
        handle.write("\n")
