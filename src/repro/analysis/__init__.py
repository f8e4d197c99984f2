"""``repro.analysis`` — determinism & protocol-invariant static analysis.

An AST-based lint engine with repo-specific rule families (DESIGN.md
§14):

* determinism (``DET-*``)  — no clocks, OS entropy, global RNG state or
  hash-order iteration in the sans-IO protocol modules;
* boundary (``IO-IMPORT``) — the sans-IO packages may not import IO or
  concurrency modules;
* slots (``SLOT-*``)       — hot-path classes declare complete
  ``__slots__``;
* wire drift (``WIRE-*``)  — struct sizes match their declared
  constants and wire tags stay unique inside
  :mod:`repro.wire.tags`.

Run it with ``python -m repro.cli lint`` (or ``python -m
repro.analysis``); CI runs ``make lint`` as a hard gate.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "rules": ("ALL_RULES", "Finding", "Rule", "all_rule_ids"),
    "engine": (
        "AnalysisConfig", "AnalysisReport", "analyze_file", "analyze_source",
        "analyze_tree", "iter_package_files",
    ),
})
