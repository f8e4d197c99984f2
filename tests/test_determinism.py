"""Reproducibility: every simulated measurement replays bit-for-bit."""

import pytest

from repro.bench import tuned_configs
from repro.bench.experiments import SweepSpec, full_mode, make_fig1
from repro.cli import main as cli_main
from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT, BernoulliLoss
from repro.sim import LIBRARY, SPREAD, run_point


def point(seed=0, loss_seed=None):
    loss = BernoulliLoss(0.01, seed=loss_seed, spare_token=True) \
        if loss_seed is not None else None
    return run_point(
        ProtocolConfig(personal_window=15, accelerated_window=10),
        SPREAD, GIGABIT, 400e6,
        duration_s=0.05, warmup_s=0.015, n_nodes=4, seed=seed, loss=loss,
    )


def test_identical_seeds_identical_results():
    a = point(seed=3)
    b = point(seed=3)
    assert a.achieved_bps == b.achieved_bps
    assert a.latency.mean_s == b.latency.mean_s
    assert a.latency.p99_s == b.latency.p99_s
    assert a.rounds_per_s == b.rounds_per_s


def test_different_seeds_differ_slightly():
    a = point(seed=3)
    b = point(seed=4)
    # Jitter differs, so exact equality would be suspicious...
    assert a.latency.mean_s != b.latency.mean_s
    # ...but the measurement is stable.
    assert a.latency.mean_s == pytest.approx(b.latency.mean_s, rel=0.2)


def test_lossy_runs_replay_exactly():
    a = point(seed=5, loss_seed=9)
    b = point(seed=5, loss_seed=9)
    assert a.retransmissions == b.retransmissions
    assert a.achieved_bps == b.achieved_bps
    assert a.latency.max_s == b.latency.max_s


def test_full_mode_env_toggles_density(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    quick = make_fig1()
    assert not full_mode()
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    assert full_mode()
    full = make_fig1()
    assert len(full.offered_mbps) > len(quick.offered_mbps)
    assert full.duration_s > quick.duration_s


def test_cli_fig4_multi_spec_path(monkeypatch, capsys, tmp_path):
    import repro.cli as cli

    def tiny(figure_id):
        return SweepSpec(
            figure_id=figure_id, title="tiny", link=GIGABIT,
            service=Service.AGREED, payload_size=1350,
            profiles=(LIBRARY,), protocols=("accelerated",),
            offered_mbps=(100.0,), n_nodes=2,
            duration_s=0.02, warmup_s=0.005,
        )

    monkeypatch.setitem(cli.ALL_FIGURES, "fig4",
                        lambda: (tiny("t4a"), tiny("t4b")))
    monkeypatch.setattr("repro.bench.runner.RESULTS_DIR", str(tmp_path))
    assert cli_main(["fig4", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "t4a" in out and "t4b" in out


def test_cli_runs_injected_tiny_figure(monkeypatch, capsys, tmp_path):
    import repro.cli as cli

    tiny = SweepSpec(
        figure_id="tinyfig", title="tiny", link=GIGABIT,
        service=Service.AGREED, payload_size=1350,
        profiles=(LIBRARY,), protocols=("accelerated",),
        offered_mbps=(100.0,), n_nodes=2,
        duration_s=0.02, warmup_s=0.005,
    )
    monkeypatch.setitem(cli.ALL_FIGURES, "tinyfig", lambda: tiny)
    monkeypatch.setenv("REPRO_BENCH_RESULTS", str(tmp_path))
    monkeypatch.setattr("repro.bench.runner.RESULTS_DIR", str(tmp_path))
    assert cli_main(["tinyfig", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "tinyfig" in out
    assert "library/accelerated" in out


# -- engine-level ordering guarantees ----------------------------------------
#
# The kernel splits same-time events between a heap and a zero-delay ready
# queue; these tests lock in the documented tie-break order so kernel
# optimizations cannot silently reorder same-time events.

def test_zero_delay_events_run_in_insertion_order():
    """Timeout(0), Signal.fire and call_in(0.0) interleave by insertion."""
    from repro.net import Simulator, Timeout

    sim = Simulator()
    order = []
    sig = sim.signal("s")

    def waiter(tag):
        yield sig
        order.append(tag)
        yield Timeout(0)
        order.append(tag + "+t0")

    def firer():
        order.append("firer-start")
        sim.call_in(0.0, lambda: order.append("callin-a"))
        sig.fire()
        sim.call_in(0.0, lambda: order.append("callin-b"))
        order.append("firer-yield")
        yield Timeout(0)
        order.append("firer-resumed")

    sim.spawn(waiter("w1"), "w1")
    sim.spawn(waiter("w2"), "w2")
    sim.spawn(firer(), "f")
    sim.run()

    assert order == [
        "firer-start", "firer-yield",   # firer's first step, uninterrupted
        "callin-a",                     # scheduled before the fire
        "w1", "w2",                     # fire resumes waiters in wait order
        "callin-b",                     # scheduled after the fire
        "firer-resumed",                # Timeout(0) yielded before w1/w2's
        "w1+t0", "w2+t0",
    ]


def test_heap_events_precede_same_time_resumes():
    """At time T, events scheduled before T outrank resumes created at T."""
    from repro.net import Simulator

    sim = Simulator()
    order = []
    sig = sim.signal("s")

    def waiter():
        yield sig
        order.append("resumed")

    def fire_and_log():
        order.append("A")
        sig.fire()

    sim.spawn(waiter(), "w")
    sim.run(until=0.5)  # waiter is now blocked on the signal
    sim.call_in(0.5, fire_and_log)
    sim.call_in(0.5, lambda: order.append("B"))
    sim.run()
    # Both callbacks land at t=1.0; the resume triggered by A must wait
    # until every heap event at t=1.0 (here: B) has run.
    assert order == ["A", "B", "resumed"]
