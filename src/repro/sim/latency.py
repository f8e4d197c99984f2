"""Latency and throughput measurement for simulated runs.

A message's latency is submit-to-delivery, measured at every receiver
(the paper reports the average latency to deliver a message).  Samples
before the warmup cutoff are discarded so steady-state numbers are not
polluted by ramp-up.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import Service


@dataclass
class LatencySummary:
    count: int
    mean_s: float
    p50_s: float
    p90_s: float
    p99_s: float
    max_s: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(count=0, mean_s=0.0, p50_s=0.0, p90_s=0.0, p99_s=0.0, max_s=0.0)


def summarize(samples: Sequence[float]) -> LatencySummary:
    if not samples:
        return LatencySummary.empty()
    ordered = sorted(samples)
    n = len(ordered)

    def pct(q: float) -> float:
        return ordered[min(n - 1, int(q * n))]

    return LatencySummary(
        count=n,
        mean_s=sum(ordered) / n,
        p50_s=pct(0.50),
        p90_s=pct(0.90),
        p99_s=pct(0.99),
        max_s=ordered[-1],
    )


class LatencyRecorder:
    """Collects delivery latency samples and delivered-byte counts."""

    def __init__(self, warmup_until_s: float = 0.0) -> None:
        self.warmup_until_s = warmup_until_s
        #: Samples per service, in the order the services first delivered:
        #: unboxed doubles, 8 bytes each, where a list of floats costs
        #: about 40 per sample.
        self._samples: Dict[Service, array] = {}
        #: The same arrays keyed by ``Service._value_``: a ``str`` hashes in
        #: C, an enum member through ``Enum.__hash__`` once per delivery.
        self._by_value: Dict[str, array] = {}
        #: Payload bytes delivered per receiving node after warmup.
        self.delivered_bytes: Dict[int, int] = {}
        self.delivered_messages: Dict[int, int] = {}

    def record(
        self,
        node_id: int,
        service: Service,
        submitted_at: Optional[float],
        delivered_at: float,
        payload_size: int,
    ) -> None:
        if delivered_at < self.warmup_until_s:
            return
        delivered_bytes = self.delivered_bytes
        delivered_bytes[node_id] = delivered_bytes.get(node_id, 0) + payload_size
        delivered_messages = self.delivered_messages
        delivered_messages[node_id] = delivered_messages.get(node_id, 0) + 1
        if submitted_at is None or submitted_at < self.warmup_until_s:
            return
        samples = self._by_value.get(service._value_)
        if samples is None:
            samples = self._by_value[service._value_] = array("d")
            self._samples[service] = samples
        samples.append(delivered_at - submitted_at)

    def summary(self, service: Optional[Service] = None) -> LatencySummary:
        if service is None:
            merged: List[float] = []
            for samples in self._samples.values():
                merged.extend(samples)
            return summarize(merged)
        return summarize(self._samples.get(service, ()))

    def throughput_bps(self, node_id: int, window_s: float) -> float:
        """Clean application-data throughput observed at one receiver."""
        if window_s <= 0:
            return 0.0
        return self.delivered_bytes.get(node_id, 0) * 8.0 / window_s

    def min_throughput_bps(self, window_s: float) -> float:
        if not self.delivered_bytes:
            return 0.0
        return min(
            self.throughput_bps(node, window_s) for node in self.delivered_bytes
        )
