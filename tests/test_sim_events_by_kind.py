"""``scripts/sim_events_by_kind.py``: its counting loop is the kernel's."""

import importlib.util
import os

from repro.core import ProtocolConfig
from repro.net import GIGABIT
from repro.sim import LIBRARY, cluster as cluster_module
from repro.sim.cluster import SimCluster

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "scripts", "sim_events_by_kind.py")
_SPEC = importlib.util.spec_from_file_location("sim_events_by_kind", _PATH)
by_kind = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(by_kind)


def _run(monkeypatch, simulator):
    monkeypatch.setattr(cluster_module, "Simulator", simulator)
    cluster = SimCluster(4, GIGABIT, LIBRARY, ProtocolConfig.accelerated(),
                         seed=3)
    cluster.inject_at_rate(200e6, 0.01)
    result = cluster.run(0.01, 0.003, offered_bps=200e6)
    return cluster.sim, result


def test_counting_simulator_runs_the_same_events_in_the_same_order(
        monkeypatch):
    plain, expected = _run(monkeypatch, cluster_module.Simulator)
    counting, result = _run(monkeypatch, by_kind.CountingSimulator)
    assert result == expected
    assert counting.event_count == plain.event_count
    assert sum(counting.kinds.values()) == counting.event_count
    # The transmit lines are arithmetic: no NIC or port process remains.
    assert {kind.split()[1] for kind in counting.kinds
            if not kind.startswith("call")} == {"cpu", "inject"}


def test_cli_prints_the_table(capsys):
    assert by_kind.main(["--nodes", "3", "--link", "1G", "--mbps", "100",
                         "--seconds", "0.01"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("3 nodes, 1G, 100 Mbps")
    assert out[-1].split()[0] == "total"
