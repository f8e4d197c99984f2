"""Golden metrics snapshots: every registered view, byte for byte.

Each case builds one registry the way the product does and pins the
SHA-256 of its snapshot rendered exactly as ``cli report --json``
prints it (``json.dumps(indent=2, sort_keys=True)`` plus a newline), so
a change to how counters reach the registry — which views exist, what
they are called, how they aggregate — cannot pass unnoticed.  The UDP
ring's values are wall-clock, so only its metric names are pinned.

The digests were minted before the registry lost its owned instruments
and the fabric monitor its second aggregation path, and matched
unchanged after.
"""

from __future__ import annotations

import hashlib
import json

from repro.cli import _traced_reference_run
from repro.emulation import EmulatedRing
from repro.multiring.sim import MultiRingSimCluster
from repro.net import GIGABIT
from repro.sim.churn import CHURN_TIMEOUTS, _protocol_config
from repro.sim.evs_node import SimEVSCluster
from repro.sim.profiles import LIBRARY


def _digest(obj) -> str:
    rendered = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def test_report_workload_snapshot():
    """``cli report --json`` (and ``obs-sample``'s metrics_sample.json)."""
    cluster, _result, _tracer = _traced_reference_run(
        1, 4, 0.02, 200e6, trace=False)
    assert _digest(cluster.metrics.snapshot()) == (
        "f7a06bc1ada3fe32211d70b2aa927933c6cebd9a1fa099097a0a3cbcc201e51f")


def test_multiring_snapshot():
    """``cli report --multiring --json``."""
    cluster = MultiRingSimCluster(2, n_nodes=4, seed=1)
    result = cluster.run(duration_s=0.05, warmup_s=0.01,
                         offered_per_ring_bps=200e6)
    assert result.ok
    assert _digest(cluster.metrics.snapshot()) == (
        "9f20ace9df0140bb07b18b04ef8fb62f83c57245ca617ef8e1ad7a72c769a7d1")


def test_gossip_evs_cluster_snapshot_after_a_spawn():
    cluster = SimEVSCluster(
        4, GIGABIT, LIBRARY, _protocol_config(), CHURN_TIMEOUTS,
        gossip=True, gossip_seed=1,
    )
    cluster.run_until_converged(timeout_s=8.0)
    cluster.spawn(9)
    cluster.run_for(0.1)
    assert _digest(cluster.metrics.snapshot()) == (
        "cf771c5dcf18ce705481ffcf5ae414c0d28e6840cce26fc2c5688226419ee43e")


def test_udp_ring_metric_names():
    ring = EmulatedRing(3)
    try:
        names = ring.metrics.names()
    finally:
        for node in ring.nodes.values():
            node.transport.close()
    assert _digest(names) == (
        "189cca473cc6297f86585a38417336dbee0401a989998ae0c3542fc3041fca3a")
