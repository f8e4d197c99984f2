"""Correctness of what the program under test delivered.

Two checkers, both over ids the benchmark generated itself:

* :func:`check_node_logs` — every node of a ring delivers everything, so
  every node's id sequence must equal node 0's on their common prefix
  and hold each measured id exactly once.
* :func:`check_witnessed_logs` — group members each see a *sub*sequence,
  so the logs carry the ring sequence number as a witness: if every id
  maps to one number and every log ascends in it, one global order
  consistent with all receivers exists.

A failed id counts towards ``fail_share``; an order disagreement also
makes the command exit non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Sequence, Tuple


@dataclass
class CheckResult:
    attempted: int
    failed: int
    order_ok: bool
    detail: str = ""

    @property
    def correct(self) -> bool:
        return self.order_ok and self.failed == 0

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def combine(results: Sequence[CheckResult]) -> CheckResult:
    """One verdict over several checked parts of a pass."""
    return CheckResult(
        attempted=sum(r.attempted for r in results),
        failed=sum(r.failed for r in results),
        order_ok=all(r.order_ok for r in results),
        detail="; ".join(r.detail for r in results if r.detail),
    )


def check_node_logs(
    logs: Mapping[int, List[int]], measured: Collection[int]
) -> CheckResult:
    """``logs[node]`` is the id sequence node delivered, in order.

    ``measured`` are the ids whose delivery counts; an id fails when any
    node misses it or delivers it twice.
    """
    reference_node = min(logs)
    reference = logs[reference_node]
    order_ok = True
    details: List[str] = []
    for node, log in logs.items():
        common = min(len(log), len(reference))
        if log[:common] != reference[:common]:
            order_ok = False
            at = next(i for i in range(common) if log[i] != reference[i])
            details.append(
                "node %d disagrees with node %d at position %d (%r vs %r)"
                % (node, reference_node, at, log[at], reference[at])
            )
    failed_ids = set()
    for node, log in logs.items():
        seen: Dict[int, int] = {}
        for ident in log:
            seen[ident] = seen.get(ident, 0) + 1
        bad = [i for i in measured if seen.get(i, 0) != 1]
        if bad:
            failed_ids.update(bad)
            details.append(
                "node %d: %d measured ids not delivered exactly once (first %r)"
                % (node, len(bad), bad[0])
            )
    return CheckResult(len(measured), len(failed_ids), order_ok,
                       "; ".join(details))


def check_witnessed_logs(
    logs: Mapping[str, Sequence[Tuple[int, int]]],
    expected: Mapping[str, Collection[int]],
) -> CheckResult:
    """``logs[receiver]`` is a sequence of ``(witness, id)`` receipts and
    ``expected[receiver]`` the ids that receiver must get exactly once.

    ``attempted`` counts expected receipts, ``failed`` the missing,
    duplicated and unexpected ones.
    """
    order_ok = True
    details: List[str] = []
    witness_of: Dict[int, int] = {}
    failed = 0
    for receiver, log in logs.items():
        previous = None
        seen: Dict[int, int] = {}
        for witness, ident in log:
            if witness_of.setdefault(ident, witness) != witness:
                order_ok = False
                details.append("id %r ordered at both %d and %d"
                               % (ident, witness_of[ident], witness))
            if previous is not None and witness <= previous:
                order_ok = False
                details.append("%s received %d after %d"
                               % (receiver, witness, previous))
            previous = witness
            seen[ident] = seen.get(ident, 0) + 1
        want = expected.get(receiver, ())
        wrong = sum(1 for i in want if seen.get(i, 0) != 1)
        wrong += sum(n for i, n in seen.items() if i not in want)
        if wrong:
            failed += wrong
            details.append("%s: %d receipts missing, repeated or unexpected"
                           % (receiver, wrong))
    attempted = sum(len(want) for want in expected.values())
    return CheckResult(attempted, failed, order_ok, "; ".join(details[:8]))


def corrupt_log(log: List) -> str:
    """Selftest fault: swap two neighbouring entries and drop another.

    A checker that passes a log after this is broken.  Returns what was
    done, for the selftest's report.
    """
    if len(log) < 4:
        raise ValueError("log too short to corrupt (%d entries)" % len(log))
    middle = len(log) // 2
    log[middle], log[middle + 1] = log[middle + 1], log[middle]
    dropped = log.pop(middle // 2)
    return "swapped positions %d/%d, dropped %r" % (middle, middle + 1, dropped)
