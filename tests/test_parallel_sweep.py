"""Parallel sweeps must reproduce serial sweeps byte for byte.

Sweep points are independent simulations with their own seeds, so the
worker count is a pure wall-clock knob: any difference in figure values
or ordering between ``processes=1`` and ``processes=N`` is a bug.
"""

import dataclasses
import multiprocessing

from repro.bench import default_processes, run_sweep, series_label
from repro.bench.experiments import make_fig1


def small_spec():
    """A 2-series x 4-load (8 point) slice of fig1, sized for tests."""
    spec = make_fig1()
    return dataclasses.replace(
        spec,
        profiles=spec.profiles[:2],
        protocols=("accelerated",),
        offered_mbps=(100.0, 300.0, 500.0, 700.0),
        n_nodes=4,
        duration_s=0.02,
        warmup_s=0.005,
    )


def test_parallel_matches_serial_exactly():
    spec = small_spec()
    serial = run_sweep(spec, processes=1)
    parallel = run_sweep(spec, processes=4)
    assert serial.labels() == parallel.labels()
    assert serial.to_csv() == parallel.to_csv()
    assert serial.to_markdown() == parallel.to_markdown()


def grid_prefixes(spec):
    """How each progress line starts, in grid order (profile, protocol,
    load)."""
    return [
        "%s %s @%.0f Mbps " % (
            spec.figure_id, series_label(profile.name, protocol), load)
        for profile in spec.profiles
        for protocol in spec.protocols
        for load in spec.offered_mbps
    ]


def test_progress_hook_fires_once_per_point():
    spec = small_spec()
    seen = []
    run_sweep(spec, progress=seen.append, processes=2)
    # The pool's imap is ordered: the lines name the points in grid
    # order, (profile, protocol, load), whichever worker finishes first.
    grid = grid_prefixes(spec)
    assert len(seen) == len(grid) == 8
    assert all(line.startswith(prefix) for line, prefix in zip(seen, grid))


class ReversingPool:
    """A stand-in pool whose completion order the test controls:
    ``imap`` maps in order, ``imap_unordered`` returns the results
    reversed, as a real pool may when the last points finish first."""

    def __init__(self, processes):
        self.processes = processes

    def imap(self, func, iterable):
        return map(func, iterable)

    def imap_unordered(self, func, iterable):
        return reversed([func(item) for item in iterable])

    def close(self):
        pass

    def join(self):
        pass


def test_pooled_sweep_reads_results_in_grid_order(monkeypatch):
    spec = small_spec()
    serial = run_sweep(spec, processes=1)
    monkeypatch.setattr(multiprocessing, "Pool", ReversingPool)
    seen = []
    pooled = run_sweep(spec, progress=seen.append, processes=2)
    assert pooled.to_csv() == serial.to_csv()
    assert pooled.to_markdown() == serial.to_markdown()
    grid = grid_prefixes(spec)
    assert len(seen) == len(grid)
    assert all(line.startswith(prefix) for line, prefix in zip(seen, grid))


def test_default_processes_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_PROCESSES", raising=False)
    assert default_processes() == 1
    monkeypatch.setenv("REPRO_BENCH_PROCESSES", "4")
    assert default_processes() == 4
    monkeypatch.setenv("REPRO_BENCH_PROCESSES", "junk")
    assert default_processes() == 1
    monkeypatch.setenv("REPRO_BENCH_PROCESSES", "0")
    assert default_processes() == 1
