"""Unified observability: metrics registry + causal lifecycle tracing.

Two instruments, one namespace:

* :class:`MetricsRegistry` (:mod:`repro.obs.registry`) — named views
  onto the counters the system already keeps (NIC, switch-port and
  switch counters, participant stats, gossip control traffic,
  transport drops), read only at snapshot time, with per-node scopes,
  cluster sums and a byte-stable JSON snapshot.

* :class:`LifecycleTracer` (:mod:`repro.obs.lifecycle`) — stamps each
  message's journey through the paper's pipeline stages into a
  ``.rtrace`` stream (:mod:`repro.wire.tracefmt`), attachable to both
  ``SimCluster`` (sim clock) and ``EmulatedRing`` (wall clock).

Analysis lives in :mod:`repro.obs.report`; the CLI front-ends are
``python -m repro.cli report`` and ``python -m repro.cli
trace-analyze``.  See ``docs/OBSERVABILITY.md``.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "registry": ("MetricsRegistry",),
    "lifecycle": (
        "LifecycleTracer", "STAGE_NAMES", "STAGE_ORIGINATED", "STAGE_PACKED",
        "STAGE_COALESCED", "STAGE_TOKEN_GRANTED", "STAGE_MULTICAST",
        "STAGE_RECEIVED", "STAGE_ORDERED", "STAGE_DELIVERED_AGREED",
        "STAGE_DELIVERED_SAFE", "STAGE_TOKEN_HANDLED", "AUX_POST_TOKEN",
        "AUX_RETRANSMISSION", "AUX_COALESCED", "AUX_SAFE",
    ),
    "report": ("analyze", "analyze_path", "format_report", "format_metrics"),
})
