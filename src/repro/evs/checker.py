"""EVSChecker: the one judge of a run's EVS invariants.

Wraps the per-axiom checkers of :mod:`repro.evs.semantics` into one
object that takes every process incarnation's app_log, keyed
``(pid, incarnation)`` by :func:`keyed_logs` (a crashed node that
restarts contributes one log per incarnation — a restarted daemon has
total amnesia, so each incarnation is its own EVS process), and
returns *all* violations instead of stopping at the first.  Both EVS
substrates, the logical-tick :class:`~repro.harness.evsnet.EVSNetwork`
and the packet-time :class:`~repro.sim.evs_node.SimEVSCluster`, hand
it logs of that one shape.  It checks:

* agreed-order prefix consistency and the EVS equality guarantee
  (virtual synchrony) across continuing members,
* gap-free, duplicate-free delivery within regular configurations,
* transitional-configuration sandwich ordering,
* self-delivery: every message a continuously-live node submitted is
  eventually delivered back to it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .configuration import AppMessage
from .semantics import (
    PER_LOG_CHECKS,
    Event,
    EVSViolation,
    check_self_inclusion,
    check_virtual_synchrony,
)

#: Every log is keyed ``(pid, incarnation)``; incarnations count from 0.
LogKey = Tuple[int, int]


def keyed_logs(
    incarnations: Mapping[int, Sequence[Any]],
) -> Dict[LogKey, Sequence[Event]]:
    """Checker input from per-pid incarnation lists, oldest first.

    Each entry is anything with an ``app_log`` (an
    :class:`~repro.membership.EVSProcess`); crashed incarnations are
    included, since their delivered prefix must still be consistent
    with the survivors'.
    """
    return {
        (pid, incarnation): process.app_log
        for pid, processes in incarnations.items()
        for incarnation, process in enumerate(processes)
    }


class EVSChecker:
    """Collects every EVS violation across a set of incarnation logs."""

    def __init__(self) -> None:
        self.violations: List[str] = []

    def _run(self, label: str, check, *args) -> None:
        try:
            check(*args)
        except EVSViolation as violation:
            self.violations.append("%s: %s" % (label, violation))

    def check_logs(
        self,
        logs: Dict[LogKey, Sequence[Event]],
        submitted: Optional[Dict[LogKey, Sequence[Any]]] = None,
    ) -> List[str]:
        """Validate all axioms; returns the accumulated violation list.

        ``submitted`` maps a log key to the payloads that incarnation
        submitted AND is required to have delivered to itself — pass it
        only for nodes that stayed up (and after the run has drained):
        EVS does not promise delivery to a process that crashed.
        """
        for key, log in logs.items():
            label = "log %r" % (key,)
            self._run(label, check_self_inclusion, log, key[0])
            for check in PER_LOG_CHECKS:
                self._run(label, check, log)
        self._run("cross-log", check_virtual_synchrony, logs)
        if submitted:
            for key, payloads in submitted.items():
                self._run(
                    "log %r" % (key,),
                    self._check_self_delivery,
                    logs.get(key, ()),
                    payloads,
                )
        return self.violations

    @staticmethod
    def _check_self_delivery(
        log: Sequence[Event], payloads: Sequence[Any]
    ) -> None:
        delivered = {
            event.payload for event in log if isinstance(event, AppMessage)
        }
        missing = [p for p in payloads if p not in delivered]
        if missing:
            raise EVSViolation(
                "self-delivery violated: %d submitted message(s) never "
                "delivered back to the submitter, first: %r"
                % (len(missing), missing[0])
            )

    def assert_ok(self) -> None:
        """Raise on any violation; the first line names the first one."""
        if self.violations:
            first, *rest = self.violations
            raise EVSViolation("\n".join(
                ["%d EVS violation(s), first: %s"
                 % (len(self.violations), first)] + rest
            ))
