"""Shared infrastructure for analysis rules.

A rule is a stateless object: ``applies`` decides from the module's
dotted name whether the rule has jurisdiction, ``check`` walks the
parsed AST and yields :class:`Finding` objects.  Rules never import the
code under analysis — everything is derived from the source text and
the AST, so a file with a runtime-breaking bug still lints.

Findings carry a *key* — a line-number-free description of the finding
site (``"Participant.window"``, ``"import:socket"``) — so the
fingerprint in the JSON report survives unrelated edits that shift line
numbers.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Finding:
    """One rule violation at one site."""

    __slots__ = ("rule", "path", "module", "line", "col", "message", "key")

    def __init__(self, rule: str, path: str, module: str, line: int,
                 col: int, message: str, key: str) -> None:
        self.rule = rule
        self.path = path
        self.module = module
        self.line = line
        self.col = col
        self.message = message
        self.key = key

    @property
    def fingerprint(self) -> str:
        """Stable identity across reports (no line numbers)."""
        return "%s:%s:%s" % (self.rule, self.module, self.key)

    def render(self) -> str:
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col, self.rule, self.message,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def __repr__(self) -> str:
        return "Finding(%s)" % self.render()


class ModuleContext:
    """Everything a rule may inspect about one source file."""

    __slots__ = ("path", "module", "source", "lines", "tree", "_imports")

    def __init__(self, path: str, module: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._imports: Optional[Dict[str, str]] = None

    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> dotted origin, from top-level and nested imports.

        ``import time`` maps ``time -> time``; ``from time import time as
        t`` maps ``t -> time.time``; ``from . import codec`` is recorded
        as a relative origin (``.codec``) which no absolute ban list
        matches — bans target stdlib modules by absolute name.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        origin = alias.name if alias.asname else \
                            alias.name.split(".")[0]
                        table[local] = origin
                elif isinstance(node, ast.ImportFrom):
                    prefix = ("." * node.level) + (node.module or "")
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        table[local] = prefix + "." + alias.name \
                            if prefix else alias.name
            self._imports = table
        return self._imports

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Dotted origin of a call target, or None if not import-rooted.

        ``time.time`` with ``import time`` resolves to ``"time.time"``;
        ``t()`` with ``from time import time as t`` resolves the same;
        ``self.clock()`` resolves to None.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))

    def trailing_int_comment(self, node: ast.AST) -> Optional[int]:
        """The ``# 40``-style declared value ending the node's last line."""
        end = getattr(node, "end_lineno", None) or node.lineno
        line = self.lines[end - 1] if end - 1 < len(self.lines) else ""
        if "#" not in line:
            return None
        comment = line.rsplit("#", 1)[1].strip()
        if comment.isdigit():
            return int(comment)
        return None


class Rule:
    """Base class: subclasses set ``rule_id`` and implement ``check``."""

    rule_id = ""

    def applies(self, module: str, config) -> bool:
        raise NotImplementedError

    def check(self, ctx: ModuleContext, config) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str,
                key: str) -> Finding:
        return Finding(
            self.rule_id, ctx.path, ctx.module,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            message, key,
        )


def module_matches(module: str, prefixes: Sequence[str]) -> bool:
    """True when ``module`` is one of ``prefixes`` or nested inside one."""
    for prefix in prefixes:
        if module == prefix or module.startswith(prefix + "."):
            return True
    return False


def scope_qualname(tree: ast.Module, target: ast.AST) -> str:
    """Dotted path of defs/classes enclosing ``target`` (``""`` at top)."""
    path: List[str] = []

    def descend(node: ast.AST, names: Tuple[str, ...]) -> bool:
        for child in ast.iter_child_nodes(node):
            if child is target:
                path.extend(names)
                return True
            child_names = names
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_names = names + (child.name,)
            if descend(child, child_names):
                return True
        return False

    descend(tree, ())
    return ".".join(path)
