"""EVSChecker: validate whole-run invariants across fault campaigns.

Wraps the per-axiom checkers of :mod:`repro.evs.semantics` into one
object that takes every process incarnation's app_log (a crashed node
that restarts contributes one log per incarnation — a restarted daemon
has total amnesia, so each incarnation is its own EVS process) and
returns *all* violations instead of stopping at the first.  This is
what the fault-injection campaign runner asserts after every scenario:

* agreed-order prefix consistency and the EVS equality guarantee
  (virtual synchrony) across continuing members,
* gap-free, duplicate-free delivery within regular configurations,
* transitional-configuration sandwich ordering,
* self-delivery: every message a continuously-live node submitted is
  eventually delivered back to it.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence

from .configuration import AppMessage
from .semantics import (
    PER_LOG_CHECKS,
    Event,
    EVSViolation,
    check_self_inclusion,
    check_virtual_synchrony,
)

#: Logs are keyed by pid or by (pid, incarnation).
LogKey = Hashable


def _pid_of(key: LogKey) -> int:
    if isinstance(key, tuple):
        return key[0]
    return key  # type: ignore[return-value]


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
            self._run(label, check_self_inclusion, log, _pid_of(key))
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
        if self.violations:
            raise EVSViolation(
                "%d EVS violation(s):\n%s"
                % (len(self.violations), "\n".join(self.violations))
            )
