"""Round-level tracing of simulated runs.

Measures the quantity the Accelerated Ring protocol is designed to
shrink: the token round time.  Attach a tracer to a cluster before
running; afterwards it reports per-node token inter-handling times,
rotation rate, and the overlap the acceleration creates (how often a
node is still multicasting when its successor handles the token —
visible as post-token sends per round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .cluster import SimCluster


@dataclass
class RoundStats:
    """Aggregate view of one node's token handlings."""

    count: int
    mean_round_s: float
    min_round_s: float
    max_round_s: float


class RoundTracer:
    """Records token-handling timestamps per node.

    When the cluster carries a metrics registry (every
    :class:`SimCluster` does), the tracer's aggregates re-register
    through it — ``sim.rounds.*`` — while this class stays the
    analysis-facing API.
    """

    def __init__(self, cluster: SimCluster, registry=None) -> None:
        self.cluster = cluster
        self.handle_times: Dict[int, List[float]] = {
            pid: [] for pid in cluster.ring
        }
        self.post_token_sends: Dict[int, int] = {pid: 0 for pid in cluster.ring}
        self.new_messages: Dict[int, int] = {pid: 0 for pid in cluster.ring}
        for pid, node in cluster.nodes.items():
            node.participant.observe(token=self._make_token_hook(pid),
                                     sent=self._make_send_hook(pid))
        if registry is None:
            registry = getattr(cluster, "metrics", None)
        if registry is not None:
            self.register_metrics(registry)

    def register_metrics(self, registry) -> None:
        """Expose the round aggregates through a MetricsRegistry."""
        for pid in self.cluster.ring:
            registry.bind_fn("sim.rounds.token_handlings",
                             (lambda p=pid: len(self.handle_times[p])), node=pid)
            registry.bind_fn("sim.rounds.post_token_sends",
                             (lambda p=pid: self.post_token_sends[p]), node=pid)
            registry.bind_fn("sim.rounds.new_messages",
                             (lambda p=pid: self.new_messages[p]), node=pid)
        registry.bind_fn("sim.rounds.mean_round_s", self.mean_round_s)
        registry.bind_fn("sim.rounds.overlap_fraction", self.overlap_fraction)

    def _make_token_hook(self, pid: int):
        def hook(received, sent, new_messages, retransmissions) -> None:
            self.handle_times[pid].append(self.cluster.sim.now)
            self.new_messages[pid] += new_messages

        return hook

    def _make_send_hook(self, pid: int):
        def hook(message) -> None:
            if message.sent_after_token:
                self.post_token_sends[pid] += 1

        return hook

    # -- analysis -----------------------------------------------------------

    def round_times(self, pid: int, skip: int = 2) -> List[float]:
        """Inter-handling intervals at one node (skipping warm-up)."""
        times = self.handle_times[pid]
        return [
            b - a for a, b in zip(times[skip:], times[skip + 1:])
        ]

    def stats(self, pid: int, skip: int = 2) -> RoundStats:
        intervals = self.round_times(pid, skip)
        if not intervals:
            return RoundStats(0, 0.0, 0.0, 0.0)
        return RoundStats(
            count=len(intervals),
            mean_round_s=sum(intervals) / len(intervals),
            min_round_s=min(intervals),
            max_round_s=max(intervals),
        )

    def mean_round_s(self, skip: int = 2) -> float:
        """Mean token round time across all nodes."""
        means = [
            self.stats(pid, skip).mean_round_s
            for pid in self.cluster.ring
            if self.stats(pid, skip).count > 0
        ]
        return sum(means) / len(means) if means else 0.0

    def overlap_fraction(self) -> float:
        """Share of initiated messages sent after the token."""
        sent = sum(self.new_messages.values())
        post = sum(self.post_token_sends.values())
        return post / sent if sent else 0.0
