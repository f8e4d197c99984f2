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
from typing import Dict, Iterator, List, Tuple

from .rules import ALL_RULES, Finding, ModuleContext

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


def analyze_source(source: str, path: str, module: str) -> List[Finding]:
    """Run the rule set over one source string (the fixture-test door)."""
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(path, module, source, tree)
    findings: List[Finding] = []
    for rule in ALL_RULES:
        if rule.applies(module):
            findings.extend(rule.check(ctx))
    _disambiguate(findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.key))
    return findings


def analyze_file(path: str, module: str) -> List[Finding]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return analyze_source(source, path, module)


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


def analyze_tree(package_root: str) -> AnalysisReport:
    """Lint every module under ``package_root`` (e.g. ``src/repro``).

    Each file's findings come from :func:`analyze_source`, already
    disambiguated: a fingerprint names its module, so no two files
    share one.
    """
    report = AnalysisReport()
    base = os.path.dirname(os.path.abspath(package_root))
    for path, module in iter_package_files(package_root):
        report.files_scanned += 1
        rel = os.path.relpath(path, base)
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            report.findings.extend(analyze_source(source, rel, module))
        except (SyntaxError, OSError, UnicodeDecodeError) as exc:
            report.parse_errors.append("%s: %s" % (rel, exc))
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
