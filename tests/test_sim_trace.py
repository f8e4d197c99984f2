"""Tests for the round tracer — and through it, the paper's central
mechanism: acceleration shortens token rounds by overlapping sending
with token passing."""

import pytest

from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT
from repro.sim import LIBRARY, SPREAD, RoundTracer, SimCluster


def traced_run(config, offered_mbps=500, duration_s=0.06, profile=SPREAD):
    cluster = SimCluster(8, GIGABIT, profile, config)
    tracer = RoundTracer(cluster)
    cluster.inject_at_rate(offered_mbps * 1e6, duration_s)
    cluster.run(duration_s, warmup_s=0.0, offered_bps=offered_mbps * 1e6)
    return tracer


ACCEL = ProtocolConfig(personal_window=20, accelerated_window=15)
ORIG = ProtocolConfig.original_ring(personal_window=20)


def test_round_times_recorded_for_every_node():
    tracer = traced_run(ACCEL)
    for pid in range(8):
        stats = tracer.stats(pid)
        assert stats.count > 10
        assert 0 < stats.min_round_s <= stats.mean_round_s <= stats.max_round_s


def test_acceleration_shortens_rounds():
    # The core claim of the paper, measured directly: at the same load,
    # the accelerated token completes rounds much faster.
    accel = traced_run(ACCEL, offered_mbps=600)
    orig = traced_run(ORIG, offered_mbps=600)
    assert accel.mean_round_s() < orig.mean_round_s() * 0.6, (
        accel.mean_round_s(), orig.mean_round_s(),
    )


def test_overlap_fraction_reflects_window():
    accel = traced_run(ACCEL, offered_mbps=600)
    orig = traced_run(ORIG, offered_mbps=600)
    assert orig.overlap_fraction() == 0.0  # original never sends post-token
    assert accel.overlap_fraction() > 0.5  # most sends overlap the token


def test_round_time_grows_with_load():
    light = traced_run(ACCEL, offered_mbps=100)
    heavy = traced_run(ACCEL, offered_mbps=800)
    assert heavy.mean_round_s() > light.mean_round_s()


def test_stats_empty_when_node_never_handles():
    cluster = SimCluster(2, GIGABIT, LIBRARY, ACCEL)
    tracer = RoundTracer(cluster)
    # Never started: no handlings recorded.
    assert tracer.stats(0).count == 0
    assert tracer.mean_round_s() == 0.0
    assert tracer.overlap_fraction() == 0.0
