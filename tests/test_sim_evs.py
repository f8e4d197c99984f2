"""Membership over the simulated network: reconfiguration in real
(simulated) time."""

import pytest

from repro.core import ProtocolConfig, Service
from repro.membership import MembershipTimeouts, State
from repro.net import GIGABIT
from repro.sim import LIBRARY, SimEVSCluster


def make_cluster(n=4):
    return SimEVSCluster(
        n, GIGABIT, LIBRARY,
        ProtocolConfig(personal_window=10, accelerated_window=8),
        MembershipTimeouts(token_loss_ticks=30, gather_ticks=20,
                           commit_ticks=40, probe_interval_ticks=15),
    )


def test_cold_start_converges_quickly():
    cluster = make_cluster(4)
    when = cluster.run_until_converged(timeout_s=2.0)
    assert when < 1.0
    members = {tuple(n.process.ring.members) for n in cluster.nodes.values()}
    assert members == {(0, 1, 2, 3)}


def test_ordering_runs_over_membership_stack():
    cluster = make_cluster(4)
    cluster.run_until_converged(timeout_s=2.0)
    for pid, node in cluster.nodes.items():
        for i in range(10):
            node.submit((pid, i),
                        Service.SAFE if i % 3 == 0 else Service.AGREED)
    cluster.run_for(0.5)
    logs = {
        pid: node.delivered_payloads()
        for pid, node in cluster.nodes.items()
    }
    assert len(logs[0]) == 40
    assert logs[0] == logs[1] == logs[2] == logs[3]


def test_crash_detected_and_reconfigured_in_time():
    cluster = make_cluster(4)
    cluster.run_until_converged(timeout_s=2.0)
    crash_at = cluster.sim.now
    cluster.nodes[2].crash()
    when = cluster.run_until_converged(timeout_s=3.0)
    # Reconfiguration completes within a small multiple of the
    # detection timeout (30 ticks x 1 ms) + gather timeout.
    assert when - crash_at < 1.0
    for node in cluster.live_nodes():
        assert tuple(node.process.ring.members) == (0, 1, 3)


def test_service_resumes_after_crash():
    cluster = make_cluster(3)
    cluster.run_until_converged(timeout_s=2.0)
    cluster.nodes[0].crash()  # the representative, no less
    cluster.run_until_converged(timeout_s=3.0)
    cluster.nodes[1].submit("recovered", Service.SAFE)
    cluster.run_for(0.5)
    for node in cluster.live_nodes():
        assert "recovered" in node.delivered_payloads()


def test_in_flight_messages_survive_crash():
    cluster = make_cluster(4)
    cluster.run_until_converged(timeout_s=2.0)
    for pid, node in cluster.nodes.items():
        for i in range(20):
            node.submit((pid, i))
    # Crash almost immediately: most messages are still in flight.
    cluster.run_for(0.001)
    cluster.nodes[3].crash()
    cluster.run_until_converged(timeout_s=3.0)
    cluster.run_for(0.5)
    survivor_logs = [n.delivered_payloads() for n in cluster.live_nodes()]
    assert survivor_logs[0] == survivor_logs[1] == survivor_logs[2]
    # Survivors' own messages all delivered (EVS self-delivery).
    for pid in (0, 1, 2):
        for i in range(20):
            assert (pid, i) in survivor_logs[0]
