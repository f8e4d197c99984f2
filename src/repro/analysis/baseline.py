"""Suppression baseline for grandfathered findings.

A baseline file maps finding *fingerprints* (rule + module + site key,
no line numbers — see ``rules/base.py``) to a short record of what was
suppressed.  ``lint`` subtracts baselined fingerprints before deciding
its exit code, so a finding that predates the gate does not block CI —
but a *new* finding, or an old one that moved to a new site, does.

The committed file is ``lint_baseline.json`` at the repo root; the
intended steady state is an empty one (docs/LINTING.md).  Regenerate
with ``python -m repro.cli lint --write-baseline`` after deliberately
accepting a finding, and never to paper over a regression.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Set

from ..records import write_record
from .rules import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "lint_baseline.json"


def load_baseline(path: str) -> Set[str]:
    """Fingerprints suppressed by the baseline file (empty if absent)."""
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            "baseline %s has version %r; this tool writes version %d"
            % (path, data.get("version"), BASELINE_VERSION)
        )
    return set(data.get("suppressions", {}))


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    """Write a baseline suppressing exactly ``findings`` (byte-stable)."""
    suppressions: Dict[str, Dict[str, object]] = {}
    for finding in findings:
        suppressions[finding.fingerprint] = {
            "path": finding.path,
            "message": finding.message,
        }
    payload = {
        "version": BASELINE_VERSION,
        "tool": "python -m repro.cli lint --write-baseline",
        "suppressions": dict(sorted(suppressions.items())),
    }
    write_record(payload, path)


def split_by_baseline(findings: Sequence[Finding], baseline: Set[str],
                      ) -> Dict[str, List[Finding]]:
    """Partition findings into ``new`` and ``baselined`` lists."""
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        (old if finding.fingerprint in baseline else new).append(finding)
    return {"new": new, "baselined": old}
