"""The analysis engine: discover, parse once, run every rule.

One :func:`analyze_tree` call walks the package, parses each file into
a single AST shared by all rules, and returns an
:class:`AnalysisReport` with findings sorted for byte-stable output.
Module dotted names (``repro.core.participant``) — not filesystem
paths — drive rule jurisdiction, so the same engine lints an installed
package, a checkout, or a test fixture handed an explicit module name.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .rules import ALL_RULES, Finding, ModuleContext, Rule

#: Packages whose replica-local decisions must be deterministic and
#: IO-free (the sans-IO core the simulator's proofs are about).
SANS_IO_MODULES = (
    "repro.core",
    "repro.evs",
    "repro.sim",
    "repro.membership",
    "repro.multiring",
    "repro.totem",
    # The driver core's in-process clients: IO-free today, and the
    # deterministic oracles depend on them staying so.
    "repro.harness",
    "repro.spreadlike",
    # The Section V comparators: simulated hosts, like repro.sim.
    "repro.baselines",
)

#: IO/concurrency modules the sans-IO packages may not import.
IO_BOUNDARY_BANNED = (
    "socket", "asyncio", "threading", "selectors", "ssl",
    "subprocess", "multiprocessing", "concurrent", "signal", "fcntl",
)

#: Modules on allocation-rate-critical paths: every class must be a
#: complete ``__slots__`` class (see rules/slots.py for exemptions).
HOT_PATH_MODULES = (
    "repro.core",
    "repro.net",
    "repro.sim.node",
    "repro.membership.gossip",
    "repro.obs.registry",
    "repro.wire.codec",
)

#: Modules subject to the wire-drift rules (struct sizes, tag spaces).
WIRE_MODULES = (
    "repro.wire",
    "repro.core.messages",
)


@dataclass(frozen=True)
class AnalysisConfig:
    """Rule jurisdiction: which dotted-module prefixes get which rules."""

    sans_io_modules: Tuple[str, ...] = SANS_IO_MODULES
    io_boundary_banned: Tuple[str, ...] = IO_BOUNDARY_BANNED
    hot_path_modules: Tuple[str, ...] = HOT_PATH_MODULES
    wire_modules: Tuple[str, ...] = WIRE_MODULES
    tag_registry_module: str = "repro.wire.tags"


@dataclass
class AnalysisReport:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "finding_count": len(self.findings),
            "parse_errors": list(self.parse_errors),
            "findings": [f.to_dict() for f in self.findings],
        }


def analyze_source(source: str, path: str, module: str,
                   config: Optional[AnalysisConfig] = None,
                   rules: Optional[Sequence[Rule]] = None,
                   ) -> List[Finding]:
    """Run the rule set over one source string (the fixture-test door)."""
    config = config or AnalysisConfig()
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(path, module, source, tree)
    findings: List[Finding] = []
    for rule in (rules if rules is not None else ALL_RULES):
        if rule.applies(module, config):
            findings.extend(rule.check(ctx, config))
    _disambiguate(findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.key))
    return findings


def analyze_file(path: str, module: str,
                 config: Optional[AnalysisConfig] = None,
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return analyze_source(source, path, module, config, rules)


def iter_package_files(package_root: str) -> Iterator[Tuple[str, str]]:
    """Yield (path, dotted module) for every ``.py`` under the package.

    ``package_root`` is the directory of the package itself (the one
    holding ``repro``'s ``__init__.py``); its basename seeds the dotted
    names.
    """
    package_root = os.path.abspath(package_root)
    package_name = os.path.basename(package_root.rstrip(os.sep))
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__"
        )
        rel = os.path.relpath(dirpath, package_root)
        parts = [] if rel == "." else rel.split(os.sep)
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            mod_parts = [package_name] + parts
            if filename != "__init__.py":
                mod_parts.append(filename[:-3])
            yield path, ".".join(mod_parts)


def analyze_tree(package_root: str,
                 config: Optional[AnalysisConfig] = None,
                 rules: Optional[Sequence[Rule]] = None) -> AnalysisReport:
    """Lint every module under ``package_root`` (e.g. ``src/repro``)."""
    config = config or AnalysisConfig()
    report = AnalysisReport()
    base = os.path.dirname(os.path.abspath(package_root))
    for path, module in iter_package_files(package_root):
        report.files_scanned += 1
        rel = os.path.relpath(path, base)
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (SyntaxError, OSError, UnicodeDecodeError) as exc:
            report.parse_errors.append("%s: %s" % (rel, exc))
            continue
        ctx = ModuleContext(rel, module, source, tree)
        for rule in (rules if rules is not None else ALL_RULES):
            if rule.applies(module, config):
                report.findings.extend(rule.check(ctx, config))
    _disambiguate(report.findings)
    report.findings.sort(
        key=lambda f: (f.path, f.line, f.col, f.rule, f.key)
    )
    return report


def _disambiguate(findings: List[Finding]) -> None:
    """Suffix repeated fingerprints (#2, #3, …) in line order."""
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    counts: Dict[str, int] = {}
    for finding in findings:
        fp = finding.fingerprint
        seen = counts.get(fp, 0)
        counts[fp] = seen + 1
        if seen:
            finding.key = "%s#%d" % (finding.key, seen + 1)
