"""Metric conservation: the registry and the raw counters must be two
views of the same numbers.

The unified :class:`~repro.obs.registry.MetricsRegistry` only *binds*
views over counters the hot paths already maintain, so on any seeded
run its per-node values and cluster sums must agree exactly with the
NIC, switch-port, switch and participant attributes summed by hand —
any drift means a counter was double-registered or a view stopped
reading the live attribute.
"""

from repro.core import ProtocolConfig
from repro.net import GIGABIT, TEN_GIGABIT, Traffic
from repro.sim import LIBRARY
from repro.sim.churn import CHURN_TIMEOUTS, _protocol_config
from repro.sim.cluster import SimCluster
from repro.sim.evs_node import SimEVSCluster


def _run_cluster(seed=2, n_nodes=4, duration_s=0.01, rate_bps=200e6):
    config = ProtocolConfig(
        personal_window=4, accelerated_window=2
    )
    cluster = SimCluster(n_nodes, GIGABIT, LIBRARY, config, seed=seed)
    cluster.inject_at_rate(rate_bps, duration_s)
    result = cluster.run(duration_s, 0.0, offered_bps=rate_bps)
    return cluster, result


def test_registry_matches_participant_stats_exactly():
    cluster, _ = _run_cluster()
    names = (
        "tokens_handled", "messages_initiated", "data_received",
        "delivered", "retransmissions_sent",
    )
    for name in names:
        metric = "core.participant." + name
        total = 0
        for pid, node in cluster.nodes.items():
            raw = getattr(node.participant.stats, name)
            assert cluster.metrics.value(metric, node=pid) == raw
            total += raw
        assert cluster.metrics.total(metric) == total
    assert cluster.metrics.total("core.participant.delivered") > 0


def test_registry_matches_fabric_monitor_exactly():
    cluster, _ = _run_cluster()
    metrics = cluster.metrics
    nics = [node.nic for node in cluster.nodes.values()]
    ports = [cluster.switch.port(h) for h in cluster.switch.host_ids]
    for name, devices in (("net.nic.frames_sent", nics),
                          ("net.nic.bytes_sent", nics),
                          ("net.nic.drops_overflow", nics),
                          ("net.port.frames_forwarded", ports),
                          ("net.port.bytes_forwarded", ports),
                          ("net.port.max_queue_bytes", ports)):
        attr = name.rsplit(".", 1)[1]
        assert metrics.total(name) == sum(getattr(d, attr) for d in devices)
        # Per-node views agree with the raw attributes.
        for device in devices:
            assert metrics.value(name, node=device.host_id) == getattr(
                device, attr)
    assert metrics.total("net.nic.frames_sent") > 0


def test_traffic_class_breakdown_conserves_switch_totals():
    cluster, _ = _run_cluster()
    switch = cluster.switch
    metrics = cluster.metrics
    by_class = {
        cls: metrics.value("net.switch.class.%s.frames" % cls)
        for cls in switch.class_frames
    }
    # The registry's per-class views read the switch's own breakdown,
    # which partitions switch ingress exactly.
    assert by_class == dict(switch.class_frames)
    assert sum(by_class.values()) == metrics.value(
        "net.switch.frames_received") == switch.frames_received
    for cls, wire_bytes in switch.class_bytes.items():
        assert metrics.value("net.switch.class.%s.bytes" % cls) == wire_bytes


def _gossip_cluster_with_a_crash():
    cluster = SimEVSCluster(
        4, GIGABIT, LIBRARY, _protocol_config(), CHURN_TIMEOUTS,
        gossip=True, gossip_seed=1,
    )
    cluster.run_until_converged(timeout_s=8.0)
    for i in range(10):
        cluster.nodes[0].submit(("m", i))
    cluster.run_for(0.01)
    cluster.crash(3)
    cluster.run_until_converged(timeout_s=8.0)
    return cluster


def _jumbo_cluster():
    config = ProtocolConfig(
        personal_window=20, accelerated_window=12, jumbo_datagram_bytes=8850,
    )
    cluster = SimCluster(4, TEN_GIGABIT, LIBRARY, config, seed=2)
    cluster.inject_at_rate(5000e6, 0.005)
    cluster.run(0.005, 0.0, offered_bps=5000e6)
    return cluster


def test_every_declared_kind_is_counted():
    """Each frame is counted under the kind its sender declared: the
    membership run sends data, token, ctrl and gossip frames, the
    coalescing run data, jumbo and token frames."""
    seen = dict.fromkeys(Traffic.ALL, 0)
    for cluster in (_gossip_cluster_with_a_crash(), _jumbo_cluster()):
        switch = cluster.switch
        assert list(switch.class_frames) == list(Traffic.ALL)
        assert sum(switch.class_frames.values()) == switch.frames_received
        for kind, frames in switch.class_frames.items():
            seen[kind] += frames
    assert all(seen.values()), seen


def test_frame_conservation_across_the_fabric():
    cluster, result = _run_cluster()
    metrics = cluster.metrics
    # Every frame a NIC accepted reached switch ingress (the sim fabric
    # has no lossy segment between NIC and switch).
    assert metrics.total("net.nic.frames_sent") == (
        cluster.switch.frames_received)
    # Switch ingress fans out: forwarded + dropped covers every
    # (frame, egress-port) pair the forwarding decision produced.
    total_ports_drops = sum(
        cluster.switch.port(h).drops_overflow
        + cluster.switch.port(h).drops_injected
        for h in cluster.switch.host_ids
    )
    # Multicast data fans to n-1 ports and unicast tokens to one, so
    # rather than re-deriving the exact fan-out mix, check the
    # accounting identity: registry, switch and result agree.
    assert metrics.total("net.port.drops_overflow") + (
        metrics.total("net.port.drops_injected")
    ) == total_ports_drops == cluster.switch.total_drops()
    assert result.switch_drops == total_ports_drops


def test_snapshot_delta_of_identical_state_is_zero():
    cluster, _ = _run_cluster()
    before = cluster.metrics.snapshot()
    after = cluster.metrics.snapshot()
    # Reading is side-effect free: every view, per node and summed,
    # reads the same number twice.
    assert after == before
    for pid, block in after["nodes"].items():
        for name, value in block.items():
            drift = value - before["nodes"][pid][name]
            assert drift == 0, "metric %s drifted by %r" % (name, drift)


def test_registry_snapshot_totals_match_sim_result():
    cluster, result = _run_cluster()
    snap = cluster.metrics.snapshot()
    cluster_block = snap["cluster"]
    assert cluster_block["sim.node.socket_drops"] == result.socket_drops
    assert cluster_block["sim.node.tokens_resent"] == result.tokens_resent
    assert cluster_block["core.participant.retransmissions_sent"] == (
        result.retransmissions
    )
    assert cluster_block["net.nic.drops_overflow"] == result.nic_drops
