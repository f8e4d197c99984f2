"""Multi-ring sharding with a deterministic cross-ring merge layer.

One accelerated Totem ring tops out at a handful of daemons; data-center
scale means many rings running in parallel.  This package shards
spreadlike groups across M independent rings and recovers one *global*
total order with a deterministic round-based merge, the way Multi-Ring
Paxos stretches Ring Paxos:

* :class:`~repro.multiring.partition.RingPartitioner` — stable
  group -> ring assignment (rendezvous hashing, so resizing the ring
  set only moves the minimum number of groups);
* :class:`~repro.multiring.merge.RoundMerger` — each ring's agreed
  stream is chopped into rounds by in-band
  :class:`~repro.multiring.messages.RoundMarker` messages (ordered
  through the ring itself, so every member chops identically); round r
  of the global order is ring 0's round-r batch, then ring 1's, ...
  An idle ring's marker closes an *empty* round (a "skip" in
  Multi-Ring Paxos terms), so slow or quiet rings never stall the
  merge;
* :class:`~repro.multiring.checker.CrossRingChecker` — the merged
  order must be a legal interleaving of the per-ring agreed orders,
  and byte-identical across observers.

The heavier driver layers live in explicit submodules so that the wire
codec can import :mod:`repro.multiring.messages` without dragging the
simulator in: :mod:`repro.multiring.sim` holds
``MultiRingSimCluster``; :mod:`repro.multiring.bench` holds the
scaling sweep behind ``python -m repro.cli multiring``.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "checker": ("CrossRingChecker",),
    "merge": ("MergeError", "MergedEntry", "RoundMerger", "merge_fingerprint"),
    "messages": ("MARKER_WIRE_SIZE", "RoundMarker"),
    "partition": ("RingPartitioner",),
})
