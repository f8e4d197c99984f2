"""Edge cases of the simulated host model."""

import pytest

from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT
from repro.sim import LIBRARY, SPREAD, SimCluster, run_point


def test_socket_buffer_overflow_recovers():
    # On 10G, frames arrive faster than Spread-profile processing, so a
    # tiny receive socket overflows during bursts; the protocol's
    # retransmissions must still converge near the offered load.
    from repro.net import TEN_GIGABIT

    tiny = TEN_GIGABIT.with_overrides(socket_buffer_bytes=24 * 1024)
    config = ProtocolConfig(personal_window=30, global_window=300,
                            accelerated_window=25)
    result = run_point(
        config, SPREAD, tiny, 2200e6,
        duration_s=0.1, warmup_s=0.03, n_nodes=6,
    )
    assert result.socket_drops > 0
    assert result.retransmissions > 0
    # Goodput degrades under the loss/retransmission churn but the
    # service keeps flowing rather than collapsing.
    assert result.achieved_bps > 800e6


def test_zero_payload_messages_flow():
    config = ProtocolConfig.accelerated(personal_window=5, accelerated_window=5)
    cluster = SimCluster(3, GIGABIT, LIBRARY, config, payload_size=1)
    cluster.inject_at_rate(1e6, duration_s=0.02)
    result = cluster.run(0.02, warmup_s=0.005, offered_bps=1e6)
    assert result.achieved_bps > 0


def test_single_node_cluster_runs():
    config = ProtocolConfig.accelerated()
    cluster = SimCluster(1, GIGABIT, LIBRARY, config)
    cluster.inject_at_rate(50e6, duration_s=0.02)
    result = cluster.run(0.02, warmup_s=0.005, offered_bps=50e6)
    assert result.achieved_bps == pytest.approx(50e6, rel=0.2)
    assert not result.saturated


def test_two_node_cluster_total_order():
    delivered = {0: [], 1: []}
    config = ProtocolConfig.accelerated(personal_window=10, accelerated_window=5)
    cluster = SimCluster(
        2, GIGABIT, LIBRARY, config,
        deliver_callback=lambda pid, m: delivered[pid].append(m.seq),
    )
    cluster.inject_at_rate(100e6, duration_s=0.03)
    cluster.run(0.03, warmup_s=0.0, offered_bps=100e6)
    shortest = min(len(delivered[0]), len(delivered[1]))
    assert shortest > 10
    assert delivered[0][:shortest] == delivered[1][:shortest]


def test_result_row_rendering():
    result = run_point(
        ProtocolConfig.accelerated(), LIBRARY, GIGABIT, 100e6,
        duration_s=0.02, warmup_s=0.005, n_nodes=2,
    )
    row = result.row()
    assert "library" in row and "Mbps" in row
    assert result.latency_us > 0
    assert result.achieved_mbps == pytest.approx(result.achieved_bps / 1e6)
