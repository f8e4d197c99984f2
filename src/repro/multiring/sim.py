"""M sharded rings + the merge driver, on the packet-level simulator.

:class:`MultiRingSimCluster` composes M independent
:class:`~repro.sim.cluster.SimCluster` fabrics — each its own switch,
NICs, token and Participant engines — shards spreadlike groups across
them with :class:`~repro.multiring.partition.RingPartitioner`, runs a
rate-driven per-group workload, and feeds every node's delivered
stream through :class:`~repro.multiring.merge.RoundMerger` to produce
the global cross-ring total order.

Round markers are injected *in band*: one marker source per ring (its
leader node) submits a :class:`~repro.multiring.messages.RoundMarker`
as a regular agreed message every ``round_interval_s``, so the round
boundaries are part of each ring's total order and every member chops
identically.  Markers keep flowing through the drain phase after data
injection stops, which closes the tail rounds on every node — that is
what makes the post-run merged orders byte-identical across observers
rather than merely prefix-consistent.

Checking is two-layer, exactly as the issue specifies:

* per ring, the EVS checker is the ordering oracle — every node's
  delivered stream is wrapped into an EVS app-log (one regular
  configuration, the static ring) and all axioms must hold;
* across rings, :class:`~repro.multiring.checker.CrossRingChecker`
  asserts the merged order is a legal interleaving of the per-ring
  agreed orders and that every observer fingerprint agrees.

The rings do not share a simulated clock: they are independent fabrics
whose only coupling is the deterministic merge function, so running
them sequentially is equivalent to running them in parallel — which is
precisely the property that makes multi-ring scale-out linear.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..core import ProtocolConfig, Service
from ..evs import EVSChecker
from ..evs.configuration import AppMessage, ConfigChange, Configuration
from ..net import GIGABIT, LinkSpec, Timeout
from ..obs.registry import MetricsRegistry
from ..sim.cluster import SimCluster, SimResult
from ..sim.profiles import LIBRARY, CostProfile
from .checker import CrossRingChecker
from .merge import MergedEntry, RoundMerger, merge_fingerprint
from .messages import MARKER_WIRE_SIZE, RoundMarker
from .partition import RingPartitioner


def _default_config() -> ProtocolConfig:
    return ProtocolConfig(personal_window=10, accelerated_window=8)


@dataclass
class MultiRingResult:
    """Everything one multi-ring run yields."""

    n_rings: int
    n_nodes: int
    groups_per_ring: int
    payload_size: int
    offered_per_ring_bps: float
    duration_s: float
    warmup_s: float
    #: One SimResult per ring (its private fabric's view of the run).
    per_ring: List[SimResult]
    #: Delivered data messages/s summed over rings (measure window,
    #: observed at one member per ring — the paper's aggregate axis).
    aggregate_msgs_per_s: float
    aggregate_mbps: float
    #: Median over groups of each group's median agreed latency (s),
    #: plus the worst group's median — the "stays flat" axis.
    group_latency_p50_s: float
    group_latency_p50_max_s: float
    group_latencies: Dict[str, float] = field(default_factory=dict)
    #: Merge-layer accounting (canonical observer).
    rounds_merged: int = 0
    skips_filled: int = 0
    entries_merged: int = 0
    markers_seen: int = 0
    max_ring_lag_rounds: int = 0
    merged_fingerprint: str = ""
    #: EVS violations per ring + cross-ring violations (empty = pass).
    evs_violations: List[str] = field(default_factory=list)
    cross_ring_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.evs_violations and not self.cross_ring_violations


class MultiRingSimCluster:
    """Build and run one M-ring sharded deployment."""

    def __init__(
        self,
        n_rings: int,
        n_nodes: int = 4,
        groups_per_ring: int = 4,
        spec: LinkSpec = GIGABIT,
        profile: CostProfile = LIBRARY,
        config: Optional[ProtocolConfig] = None,
        payload_size: int = 1350,
        round_interval_s: float = 0.002,
        seed: int = 1,
        idle_rings: Tuple[int, ...] = (),
    ) -> None:
        if n_rings < 1:
            raise ValueError("need at least one ring")
        self.n_rings = n_rings
        self.n_nodes = n_nodes
        self.groups_per_ring = groups_per_ring
        self.spec = spec
        self.profile = profile
        self.config = config or _default_config()
        self.payload_size = payload_size
        self.round_interval_s = round_interval_s
        self.seed = seed
        #: Rings whose groups get no injected load (skip-path exercise).
        self.idle_rings = tuple(idle_rings)
        self.partitioner = RingPartitioner(n_rings)
        #: Per-ring group lists, placed by rendezvous hashing.
        self.shards = self.partitioner.fill(groups_per_ring)
        #: ring -> pid -> [(deliver_time_s, DataMessage)] — every node's
        #: delivered stream, the merge layer's input.
        self.streams: List[Dict[int, List[Tuple[float, Any]]]] = []
        self.rings: List[SimCluster] = []
        for ring_index in range(n_rings):
            streams = {pid: [] for pid in range(n_nodes)}
            self.streams.append(streams)
            self.rings.append(self._build_ring(ring_index, streams))
        #: The canonical merger (fed from each ring's member 0); other
        #: observers are merged post-run for the agreement check.
        self.merger = RoundMerger(n_rings)
        self.metrics = MetricsRegistry()
        self._register_metrics()
        self._ran = False

    def _build_ring(
        self, ring_index: int,
        streams: Dict[int, List[Tuple[float, Any]]],
    ) -> SimCluster:
        holder: Dict[str, Any] = {}

        def deliver(pid: int, message: Any) -> None:
            streams[pid].append((holder["sim"].now, message))

        cluster = SimCluster(
            self.n_nodes, self.spec, self.profile, self.config,
            payload_size=self.payload_size, service=Service.AGREED,
            seed=self.seed * 1000003 + ring_index,
            deliver_callback=deliver, ring_id=ring_index,
        )
        holder["sim"] = cluster.sim
        return cluster

    def _register_metrics(self) -> None:
        """Merge-layer counters under the ``multiring.*`` namespace.

        All bound views over the canonical merger's plain attributes —
        snapshots read them for free, the merge hot path pays nothing.
        """
        metrics = self.metrics
        merger = self.merger
        for name in ("rounds_merged", "skips_filled", "entries_merged",
                     "markers_seen"):
            metrics.bind("multiring.merge." + name, merger, name)
        metrics.bind("multiring.merge.frontier_round", merger, "frontier")
        for i in range(self.n_rings):
            metrics.bind_fn("multiring.merge.ring_lag_rounds",
                            partial(merger.ring_lag, i), node=i)
            metrics.bind_fn("multiring.merge.pending_entries",
                            partial(merger.pending_entries, i), node=i)
            metrics.bind_fn("multiring.ring.groups",
                            (lambda i=i: len(self.shards[i])), node=i)
            metrics.bind_fn("multiring.ring.delivered_entries",
                            (lambda i=i: len(self.streams[i][0])), node=i)

    # -- workload ----------------------------------------------------------

    def _group_injector(self, cluster: SimCluster, node, group: str,
                        interval: float, rng: random.Random,
                        duration_s: float):
        # Stagger group start phases so rings do not tick in lockstep.
        yield Timeout(interval * rng.random())
        count = 0
        while cluster.sim.now < duration_s:
            node.submit((group, count), Service.AGREED, self.payload_size)
            count += 1
            yield Timeout(interval * (1.0 + 0.1 * (rng.random() - 0.5)))

    def _marker_injector(self, cluster: SimCluster, node, ring_index: int,
                         stop_s: float):
        round_number = 1
        while True:
            yield Timeout(self.round_interval_s)
            if cluster.sim.now >= stop_s:
                return
            node.submit(RoundMarker(ring_index, round_number),
                        Service.AGREED, MARKER_WIRE_SIZE)
            round_number += 1

    # -- execution ---------------------------------------------------------

    def run(
        self,
        duration_s: float = 0.3,
        warmup_s: float = 0.1,
        drain_s: float = 0.06,
        offered_per_ring_bps: float = 320e6,
    ) -> MultiRingResult:
        """Run every ring, merge, check, and summarize.

        Data injection stops at ``duration_s``; markers keep flowing for
        half the drain so every in-flight round closes on every node,
        then the last half of the drain lets the final marker reach all
        members.  Rings run sequentially — they share nothing but the
        merge function, so this is exactly equivalent to a parallel run.
        """
        if self._ran:
            raise RuntimeError("cluster already ran")
        self._ran = True
        horizon_s = duration_s + drain_s
        marker_stop_s = duration_s + drain_s * 0.5
        per_ring_results: List[SimResult] = []
        for ring_index, cluster in enumerate(self.rings):
            groups = self.shards[ring_index]
            loaded = ring_index not in self.idle_rings
            if groups and loaded:
                per_group_bps = offered_per_ring_bps / len(groups)
                interval = (self.payload_size * 8.0) / per_group_bps
                for group_pos, group in enumerate(groups):
                    sender = cluster.nodes[group_pos % self.n_nodes]
                    rng = random.Random(
                        self.seed * 0x9E3779B1 + ring_index * 101 + group_pos
                    )
                    cluster.sim.spawn(
                        self._group_injector(cluster, sender, group,
                                             interval, rng, duration_s),
                        "mr%d-%s" % (ring_index, group),
                    )
            leader = cluster.nodes[cluster.ring.leader]
            cluster.sim.spawn(
                self._marker_injector(cluster, leader, ring_index,
                                      marker_stop_s),
                "mrmark%d" % ring_index,
            )
            per_ring_results.append(cluster.run(
                horizon_s, warmup_s,
                offered_bps=offered_per_ring_bps if loaded else 0.0,
            ))
        return self._summarize(duration_s, warmup_s, offered_per_ring_bps,
                               per_ring_results)

    # -- analysis ----------------------------------------------------------

    def _data_entries(self, ring_index: int, pid: int):
        """(seq, sender, payload) data order one node saw (no markers)."""
        return [
            (m.seq, m.pid, m.payload)
            for _t, m in self.streams[ring_index][pid]
            if type(m.payload) is not RoundMarker
        ]

    def _merge_from(self, node_of_ring: List[int]) -> List[MergedEntry]:
        """Merge one observer selection (ring i read at node_of_ring[i])."""
        merger = RoundMerger(self.n_rings)
        for ring_index in range(self.n_rings):
            for _t, message in self.streams[ring_index][node_of_ring[ring_index]]:
                merger.push(ring_index, message.seq, message.pid,
                            message.payload)
        return merger.merged

    def _evs_logs(self, ring_index: int) -> Dict[Tuple[int, int], List[Any]]:
        """Wrap each node's delivered stream as an EVS app-log, keyed
        ``(pid, 0)``: no node restarts here."""
        members = tuple(range(self.n_nodes))
        logs: Dict[Tuple[int, int], List[Any]] = {}
        for pid in members:
            configuration = Configuration.regular(ring_index, members)
            log: List[Any] = [ConfigChange(configuration)]
            for _t, message in self.streams[ring_index][pid]:
                log.append(AppMessage(
                    ring_id=ring_index, seq=message.seq, sender=message.pid,
                    payload=message.payload,
                    safe=message.service is Service.SAFE,
                ))
            logs[(pid, 0)] = log
        return logs

    def check(self) -> Tuple[List[str], List[str]]:
        """Run both oracles; returns (evs, cross-ring) violation lists."""
        evs_violations: List[str] = []
        for ring_index in range(self.n_rings):
            checker = EVSChecker()
            checker.check_logs(self._evs_logs(ring_index))
            evs_violations.extend(
                "ring %d %s" % (ring_index, v) for v in checker.violations
            )
        ring_orders = {
            ring_index: self._data_entries(ring_index, 0)
            for ring_index in range(self.n_rings)
        }
        fingerprints = {
            pid: merge_fingerprint(self._merge_from([pid] * self.n_rings))
            for pid in range(self.n_nodes)
        }
        cross = CrossRingChecker()
        cross.check(self.merger.merged, ring_orders, fingerprints)
        return evs_violations, cross.violations

    def _summarize(
        self, duration_s: float, warmup_s: float,
        offered_per_ring_bps: float,
        per_ring_results: List[SimResult],
    ) -> MultiRingResult:
        # Feed the canonical merger: each ring read at its member 0.
        for ring_index in range(self.n_rings):
            for _t, message in self.streams[ring_index][0]:
                self.merger.push(ring_index, message.seq, message.pid,
                                 message.payload)

        window = duration_s - warmup_s
        total_msgs = 0
        group_samples: Dict[str, List[float]] = {}
        for ring_index in range(self.n_rings):
            for t, message in self.streams[ring_index][0]:
                payload = message.payload
                if type(payload) is RoundMarker:
                    continue
                if warmup_s <= t <= duration_s:
                    total_msgs += 1
                    if message.submitted_at is not None \
                            and message.submitted_at >= warmup_s:
                        group_samples.setdefault(payload[0], []).append(
                            t - message.submitted_at
                        )
        group_p50s: Dict[str, float] = {}
        for group, samples in group_samples.items():
            ordered = sorted(samples)
            group_p50s[group] = ordered[len(ordered) // 2]
        ordered_p50s = sorted(group_p50s.values())
        p50_median = (
            ordered_p50s[len(ordered_p50s) // 2] if ordered_p50s else 0.0
        )
        p50_max = ordered_p50s[-1] if ordered_p50s else 0.0

        evs_violations, cross_violations = self.check()
        return MultiRingResult(
            n_rings=self.n_rings,
            n_nodes=self.n_nodes,
            groups_per_ring=self.groups_per_ring,
            payload_size=self.payload_size,
            offered_per_ring_bps=offered_per_ring_bps,
            duration_s=duration_s,
            warmup_s=warmup_s,
            per_ring=per_ring_results,
            aggregate_msgs_per_s=total_msgs / window if window > 0 else 0.0,
            aggregate_mbps=(
                total_msgs * self.payload_size * 8.0 / window / 1e6
                if window > 0 else 0.0
            ),
            group_latency_p50_s=p50_median,
            group_latency_p50_max_s=p50_max,
            group_latencies={g: p for g, p in sorted(group_p50s.items())},
            rounds_merged=self.merger.rounds_merged,
            skips_filled=self.merger.skips_filled,
            entries_merged=self.merger.entries_merged,
            markers_seen=self.merger.markers_seen,
            max_ring_lag_rounds=max(
                self.merger.ring_lag(i) for i in range(self.n_rings)
            ),
            merged_fingerprint=merge_fingerprint(self.merger.merged),
            evs_violations=evs_violations,
            cross_ring_violations=cross_violations,
        )
