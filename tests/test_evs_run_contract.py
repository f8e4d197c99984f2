"""The EVS run contract both EVS substrates keep.

``EVSNetwork`` (logical ticks) and ``SimEVSCluster`` (packet time) each
run the same schedule shape here: converge, crash one process, restart
it, spawn a brand-new pid, converge again.  Both must then hand the one
judge, ``EVSChecker``, logs of one shape:

* every log is keyed ``(pid, incarnation)``, one per incarnation,
  crashed ones included;
* a restarted incarnation is its predecessor's
  ``EVSProcess.restarted()``: same pid, config and timeouts, carrying
  only the stable-storage ring epoch;
* the checker finds no violation.
"""

from repro.core import ProtocolConfig
from repro.evs import EVSChecker
from repro.harness.evsnet import EVSNetwork
from repro.membership import EVSProcess, MembershipTimeouts, State, on_one_ring
from repro.net import GIGABIT
from repro.sim.evs_node import SimEVSCluster
from repro.sim.profiles import LIBRARY

CONFIG = ProtocolConfig(personal_window=10, accelerated_window=2)
TIMEOUTS = MembershipTimeouts(token_loss_ticks=30, gather_ticks=20,
                              commit_ticks=40, probe_interval_ticks=15)


def assert_contract(logs, incarnations):
    """``incarnations``: pid -> every EVSProcess of that pid, oldest first."""
    assert set(logs) == {
        (pid, index)
        for pid, processes in incarnations.items()
        for index in range(len(processes))
    }
    for pid, processes in incarnations.items():
        for index, process in enumerate(processes):
            assert logs[(pid, index)] is process.app_log
            assert process.pid == pid
            assert process.config == CONFIG
            assert process.timeouts == TIMEOUTS
    assert EVSChecker().check_logs(logs) == []


def test_logical_tick_substrate_keeps_the_run_contract():
    net = EVSNetwork([1, 2, 3], CONFIG, TIMEOUTS)
    net.run_until_converged()
    net.submit(1, "before")
    net.run_quiet(100)
    net.crash(3)
    net.run_until_converged()
    crashed = net.processes[3]
    assert crashed.stable_ring_seq > 0
    reborn = net.restart(3)
    assert reborn.stable_ring_seq == crashed.stable_ring_seq
    assert reborn.app_log[1:] == []  # amnesiac: only its boot singleton
    net.run_until_converged()
    net.spawn(4)
    net.run_until_converged()
    net.submit(4, "after")
    net.run_quiet(200)
    assert net.incarnations[3] == [crashed, reborn]
    assert_contract(net.logs(), net.incarnations)


def test_packet_time_substrate_keeps_the_run_contract():
    # spawn needs the gossip detection path (probes never reach an
    # unknown pid).
    cluster = SimEVSCluster(3, GIGABIT, LIBRARY, CONFIG, TIMEOUTS,
                            gossip=True, gossip_seed=1)
    cluster.run_until_converged(timeout_s=4.0)
    cluster.nodes[0].submit("before")
    cluster.run_for(0.2)
    cluster.crash(2)
    cluster.run_until_converged(timeout_s=4.0)
    crashed = cluster.nodes[2].process
    assert crashed.stable_ring_seq > 0
    cluster.restart(2)
    reborn = cluster.nodes[2].process
    assert reborn.stable_ring_seq == crashed.stable_ring_seq
    assert reborn.app_log[1:] == []
    cluster.run_until_converged(timeout_s=4.0)
    cluster.spawn(3)
    cluster.run_until_converged(timeout_s=8.0)
    cluster.nodes[3].submit("after")
    cluster.run_for(0.3)
    assert cluster.nodes[2].incarnations == [crashed, reborn]
    assert cluster.nodes[2].incarnation == 1
    assert_contract(
        cluster.logs(),
        {pid: node.incarnations for pid, node in cluster.nodes.items()},
    )


def test_spawned_joiner_runs_the_network_config_and_timeouts():
    net = EVSNetwork([1, 2], CONFIG, TIMEOUTS)
    net.run_until_converged()
    joiner = net.spawn(3)
    assert joiner.config == CONFIG
    assert joiner.timeouts == TIMEOUTS
    net.run_until_converged()
    assert tuple(joiner.ring.members) == (1, 2, 3)


def test_one_ring_rule():
    a, b = EVSProcess(1), EVSProcess(2)
    # Each boots Operational on its own singleton ring.
    assert on_one_ring([a]) and on_one_ring([])
    assert not on_one_ring([a, b])
    net = EVSNetwork([1, 2])
    net.run_until_converged()
    assert on_one_ring(list(net.processes.values()))
    assert not on_one_ring([net.processes[1]])  # ring has a second member
    net.processes[2].bootstrap()  # back to Gather
    assert net.processes[2].state is State.GATHER
    assert not on_one_ring(list(net.processes.values()))
