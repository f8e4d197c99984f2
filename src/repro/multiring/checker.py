"""Cross-ring ordering oracle for the merge layer.

The per-ring oracle is the EVS checker (each ring's members must agree
on that ring's order); this module checks the layer above: the *global*
merged order must be a legal interleaving of the per-ring agreed
orders, identical at every observer.  Violations are collected, not
raised, mirroring :class:`repro.evs.checker.EVSChecker` so campaign
runners can report everything that went wrong in one pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .merge import MergedEntry


class CrossRingChecker:
    """Validates one merged order against its per-ring sources."""

    def __init__(self) -> None:
        self.violations: List[str] = []

    # -- individual checks -------------------------------------------------

    def check_round_structure(self, merged: Sequence[MergedEntry]) -> None:
        """Rounds never go backwards; within a round, rings are visited
        in ascending ring order — the deterministic merge shape."""
        last = (0, -1)
        for entry in merged:
            position = (entry.round, entry.ring_index)
            if position < last:
                self.violations.append(
                    "merge structure violated: entry %r after round/ring "
                    "position %r" % (entry, last)
                )
                return
            last = position

    def check_no_duplicates(self, merged: Sequence[MergedEntry]) -> None:
        seen = set()
        for entry in merged:
            key = entry.key()
            if key in seen:
                self.violations.append(
                    "duplicate merge of ring message %r" % (key,)
                )
                return
            seen.add(key)

    def check_legal_interleaving(
        self,
        merged: Sequence[MergedEntry],
        ring_orders: Dict[int, Sequence[Tuple[int, int, object]]],
    ) -> None:
        """Projecting the merged order onto one ring must give a prefix
        of that ring's agreed (seq, sender, payload) data order.

        A *prefix*, not the whole stream: messages delivered after a
        ring's last closed round are still waiting for their marker.
        Anything reordered, dropped mid-stream, or invented by the
        merge breaks the prefix property.
        """
        projections: Dict[int, List[Tuple[int, int, object]]] = {
            ring_index: [] for ring_index in ring_orders
        }
        for entry in merged:
            if entry.ring_index not in projections:
                self.violations.append(
                    "merged entry %r names unknown ring %d"
                    % (entry, entry.ring_index)
                )
                return
            projections[entry.ring_index].append(
                (entry.ring_seq, entry.sender, entry.payload)
            )
        for ring_index, projection in sorted(projections.items()):
            source = list(ring_orders[ring_index])
            if projection != source[: len(projection)]:
                mismatch = next(
                    (i for i, (a, b) in enumerate(zip(projection, source))
                     if a != b),
                    min(len(projection), len(source)),
                )
                self.violations.append(
                    "merged order is not an interleaving of ring %d's "
                    "agreed order: first divergence at projected index "
                    "%d (%r vs %r)"
                    % (ring_index, mismatch,
                       projection[mismatch] if mismatch < len(projection)
                       else "<past end>",
                       source[mismatch] if mismatch < len(source)
                       else "<past end>")
                )

    def check_observer_agreement(
        self, fingerprints: Dict[object, str]
    ) -> None:
        """Every observer's merged order carries the same fingerprint."""
        distinct = sorted(set(fingerprints.values()))
        if len(distinct) > 1:
            self.violations.append(
                "observers disagree on the merged order: %d distinct "
                "fingerprints across %r"
                % (len(distinct), sorted(fingerprints))
            )

    # -- the full oracle ---------------------------------------------------

    def check(
        self,
        merged: Sequence[MergedEntry],
        ring_orders: Dict[int, Sequence[Tuple[int, int, object]]],
        observer_fingerprints: Optional[Dict[object, str]] = None,
    ) -> List[str]:
        """Run every cross-ring axiom; returns accumulated violations."""
        self.check_round_structure(merged)
        self.check_no_duplicates(merged)
        self.check_legal_interleaving(merged, ring_orders)
        if observer_fingerprints:
            self.check_observer_agreement(observer_fingerprints)
        return self.violations

    @property
    def ok(self) -> bool:
        return not self.violations
