"""Tests for the simulated deployment (nodes, cluster, measurements).

These are correctness and sanity tests; the figure-level performance
assertions live in benchmarks/.
"""

import tracemalloc

import pytest

from repro.core import PriorityMethod, ProtocolConfig, Service
from repro.core import driver as driver_module
from repro.net import GIGABIT, TEN_GIGABIT, BernoulliLoss
from repro.sim import DAEMON, LIBRARY, SPREAD, SimCluster, run_point
from repro.sim.latency import LatencyRecorder, summarize


ACCEL = ProtocolConfig(personal_window=20, accelerated_window=15)
ORIG = ProtocolConfig.original_ring(personal_window=20)


def quick_point(config, offered_mbps, profile=LIBRARY, spec=GIGABIT, **kw):
    defaults = dict(duration_s=0.08, warmup_s=0.03, n_nodes=4)
    defaults.update(kw)
    return run_point(config, profile, spec, offered_mbps * 1e6, **defaults)


# ---------------------------------------------------------------------------
# Latency recorder
# ---------------------------------------------------------------------------

def test_summarize_empty():
    summary = summarize([])
    assert summary.count == 0 and summary.mean_s == 0.0


def test_summarize_percentiles():
    samples = [float(i) for i in range(1, 101)]
    summary = summarize(samples)
    assert summary.count == 100
    assert summary.mean_s == pytest.approx(50.5)
    assert summary.p50_s == 51.0
    assert summary.p99_s == 100.0
    assert summary.max_s == 100.0


def test_recorder_ignores_warmup():
    recorder = LatencyRecorder(warmup_until_s=1.0)
    recorder.record(0, Service.AGREED, submitted_at=0.5, delivered_at=0.9,
                    payload_size=100)
    assert recorder.summary().count == 0
    recorder.record(0, Service.AGREED, submitted_at=1.1, delivered_at=1.2,
                    payload_size=100)
    assert recorder.summary().count == 1
    assert recorder.delivered_bytes[0] == 100


def test_recorder_excludes_straddling_submissions():
    # Submitted before warmup, delivered after: bytes count, latency not.
    recorder = LatencyRecorder(warmup_until_s=1.0)
    recorder.record(0, Service.AGREED, submitted_at=0.9, delivered_at=1.1,
                    payload_size=100)
    assert recorder.summary().count == 0
    assert recorder.delivered_bytes[0] == 100


def test_recorder_per_service_split():
    recorder = LatencyRecorder()
    recorder.record(0, Service.AGREED, 0.0, 1.0, 10)
    recorder.record(0, Service.SAFE, 0.0, 3.0, 10)
    assert recorder.summary(Service.AGREED).mean_s == 1.0
    assert recorder.summary(Service.SAFE).mean_s == 3.0
    assert recorder.summary().count == 2


def test_recorder_stores_samples_unboxed():
    # A run's recorder outlives it as cyclic garbage until a full
    # collection, so its samples should cost what a double does.
    recorder = LatencyRecorder()
    count = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for i in range(count):
            recorder.record(i % 8, Service.AGREED, 0.0, i * 1e-6, 10)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert grown <= 16 * count, grown / count
    assert recorder.summary().count == count


# ---------------------------------------------------------------------------
# Cluster runs: conservation and correctness inside the simulator
# ---------------------------------------------------------------------------

def test_all_nodes_deliver_everything():
    result = quick_point(ACCEL, 200)
    # min == max throughput across receivers means everyone saw the
    # same traffic.
    cluster_window = 0.08 - 0.03
    assert result.achieved_bps > 0
    assert not result.saturated
    assert result.switch_drops == 0


def test_total_order_inside_simulation():
    # Capture per-node delivery sequences via the callback and compare.
    delivered = {}

    cluster = SimCluster(
        4, GIGABIT, LIBRARY, ACCEL, seed=1,
        deliver_callback=lambda pid, m: delivered.setdefault(
            pid, []).append(m.seq),
    )
    cluster.inject_at_rate(200e6, duration_s=0.05)
    cluster.run(0.05, warmup_s=0.0, offered_bps=200e6)
    lengths = {p: len(s) for p, s in delivered.items()}
    assert min(lengths.values()) > 50
    shortest = min(lengths.values())
    base = delivered[0][:shortest]
    for pid in (1, 2, 3):
        assert delivered[pid][:shortest] == base


def test_achieved_tracks_offered_below_saturation():
    for mbps in (100, 400):
        result = quick_point(ACCEL, mbps)
        assert result.achieved_bps == pytest.approx(mbps * 1e6, rel=0.1)


def test_saturation_detected_beyond_capacity():
    result = quick_point(ORIG, 1200, profile=SPREAD, spec=GIGABIT)
    assert result.saturated
    assert result.achieved_bps < 1200e6 * 0.95


def test_latency_grows_with_load():
    low = quick_point(ORIG, 100, profile=SPREAD)
    high = quick_point(ORIG, 700, profile=SPREAD)
    assert high.latency.mean_s > low.latency.mean_s


def test_accelerated_beats_original_at_high_load_1g():
    orig = quick_point(ORIG, 800, profile=SPREAD, n_nodes=8)
    accel = quick_point(ACCEL, 800, profile=SPREAD, n_nodes=8)
    assert accel.latency.mean_s < orig.latency.mean_s


def test_token_rotates_when_idle():
    cluster = SimCluster(4, GIGABIT, LIBRARY, ACCEL)
    result = cluster.run(0.02, warmup_s=0.0)
    assert result.rounds_per_s > 1000  # the token spins without traffic


def test_safe_latency_higher_than_agreed():
    agreed = quick_point(ACCEL, 300, service=Service.AGREED)
    safe = quick_point(ACCEL, 300, service=Service.SAFE)
    assert safe.latency.mean_s > agreed.latency.mean_s


def test_spread_header_reduces_goodput_headroom():
    # Same offered load fits for everyone, but headers differ on the wire.
    lib = quick_point(ACCEL, 300, profile=LIBRARY)
    spread = quick_point(ACCEL, 300, profile=SPREAD)
    assert lib.achieved_bps == pytest.approx(spread.achieved_bps, rel=0.1)


def test_loss_recovery_in_simulation():
    loss = BernoulliLoss(0.01, seed=3, spare_token=True)
    result = quick_point(
        ACCEL, 200, loss=loss, duration_s=0.1, warmup_s=0.03,
    )
    assert loss.dropped > 0
    assert result.retransmissions > 0
    assert result.achieved_bps == pytest.approx(200e6, rel=0.15)


def test_token_loss_recovered_by_timer(monkeypatch):
    from repro.net import Traffic

    dropped = {"n": 0}

    def drop_one_token(frame):
        if frame.traffic is Traffic.TOKEN and dropped["n"] == 0:
            dropped["n"] += 1
            return True
        return False

    monkeypatch.setattr(driver_module, "TOKEN_RETRANSMIT_TIMEOUT_S", 0.002)
    result = quick_point(ACCEL, 100, loss=drop_one_token,
                         duration_s=0.1, warmup_s=0.03)
    assert dropped["n"] == 1
    assert result.tokens_resent >= 1
    assert result.achieved_bps == pytest.approx(100e6, rel=0.15)


def test_injectors_cannot_start_twice():
    cluster = SimCluster(2, GIGABIT, LIBRARY, ACCEL)
    cluster.inject_at_rate(1e6, 0.01)
    with pytest.raises(RuntimeError):
        cluster.inject_at_rate(1e6, 0.01)


def test_zero_rate_is_valid():
    cluster = SimCluster(2, GIGABIT, LIBRARY, ACCEL)
    cluster.inject_at_rate(0.0, 0.01)
    result = cluster.run(0.01, warmup_s=0.0)
    assert result.achieved_bps == 0.0


# ---------------------------------------------------------------------------
# Figure-shape smoke checks (fast, loose; benchmarks assert the real thing)
# ---------------------------------------------------------------------------

def test_fig7_shape_low_throughput_safe_crossover():
    orig_low = quick_point(ORIG, 100, profile=SPREAD, spec=TEN_GIGABIT,
                           service=Service.SAFE, n_nodes=8)
    accel_low = quick_point(ACCEL, 100, profile=SPREAD, spec=TEN_GIGABIT,
                            service=Service.SAFE, n_nodes=8)
    # At 1% utilization the original's Safe latency is LOWER (the
    # accelerated aru lags a round).
    assert orig_low.latency.mean_s < accel_low.latency.mean_s

    orig_high = quick_point(ORIG, 800, profile=SPREAD, spec=TEN_GIGABIT,
                            service=Service.SAFE, n_nodes=8)
    accel_high = quick_point(ACCEL, 800, profile=SPREAD, spec=TEN_GIGABIT,
                             service=Service.SAFE, n_nodes=8)
    assert accel_high.latency.mean_s < orig_high.latency.mean_s


def test_acceleration_speeds_up_token_rotation():
    orig = quick_point(ORIG, 400, profile=DAEMON, n_nodes=8)
    accel = quick_point(ACCEL, 400, profile=DAEMON, n_nodes=8)
    assert accel.rounds_per_s > orig.rounds_per_s
