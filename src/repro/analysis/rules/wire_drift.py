"""Wire-drift lints: struct sizes and tag registries.

The simulator *charges* byte sizes it never serializes, and the codec
*measures* them; ``tests/test_wire_sizes.py`` proves the two agree at
runtime.  These rules move the cheapest half of that proof to review
time:

* ``WIRE-SIZE`` — a module-level size constant whose defining line ends
  in a declared value (``HEADER_SIZE = _HEADER.size  # 12``) is
  evaluated statically — ``struct.Struct`` format strings are run
  through ``struct.calcsize`` and constant arithmetic is folded — and
  a mismatch between computed and declared value is a finding.  An
  unparseable format string is one too.
* ``WIRE-TAG-DUP`` — tag numbers in the central registry
  (:mod:`repro.wire.tags`) must be unique per byte-space: ``TYPE_*``
  (frame header) in one namespace, ``VALUE_*`` + ``OBJECT_TAG_*``
  (the shared TLV tag byte) jointly in another.  Duplicate literal
  keys in a registry dict display (which Python silently collapses)
  are findings as well.
* ``WIRE-TAG-SCATTER`` — outside the registry, no wire module may bind
  a tag-patterned name (``TYPE_*``, ``VALUE_*``, ``OBJECT_TAG_*``,
  ``_V_*``) to an integer literal: new tags go in the registry, and
  everything else refers to them by name.
"""

from __future__ import annotations

import ast
import re
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from .base import (
    TAG_REGISTRY_MODULE,
    WIRE_MODULES,
    Finding,
    ModuleContext,
    Rule,
    module_matches,
)

_TAG_NAME = re.compile(r"^(TYPE_|VALUE_|OBJECT_TAG_|_V_)\w+$")


def _struct_call_format(node: ast.AST, ctx: ModuleContext) -> Optional[str]:
    """The literal format string of a ``struct.Struct("...")`` call."""
    if not isinstance(node, ast.Call) or len(node.args) != 1:
        return None
    target = ctx.resolve_call(node.func)
    if target not in ("struct.Struct", "struct.calcsize"):
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


class _ConstEvaluator:
    """Folds module-level size arithmetic: ints, Name refs, ``X.size``."""

    __slots__ = ("consts", "structs")

    def __init__(self) -> None:
        self.consts: Dict[str, int] = {}
        self.structs: Dict[str, int] = {}  # name -> calcsize(fmt)

    def eval(self, node: ast.AST) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        if isinstance(node, ast.Name):
            return self.consts.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr == "size" and \
                isinstance(node.value, ast.Name):
            return self.structs.get(node.value.id)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            return None
        return None


class WireSizeRule(Rule):
    """WIRE-SIZE: declared size comments vs computed struct sizes."""

    rule_id = "WIRE-SIZE"

    def applies(self, module: str) -> bool:
        return module_matches(module, WIRE_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        evaluator = _ConstEvaluator()
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            fmt = _struct_call_format(node.value, ctx)
            if fmt is not None:
                try:
                    evaluator.structs[target.id] = struct.calcsize(fmt)
                except struct.error as exc:
                    yield self.finding(
                        ctx, node,
                        "struct format %r does not parse: %s"
                        % (fmt, exc),
                        "fmt:%s" % target.id,
                    )
                continue
            value = evaluator.eval(node.value)
            if value is not None:
                evaluator.consts[target.id] = value
            declared = ctx.trailing_int_comment(node)
            if declared is None or value is None:
                continue
            if value != declared:
                yield self.finding(
                    ctx, node,
                    "%s computes to %d but its declaring comment "
                    "says %d — wire size drift"
                    % (target.id, value, declared),
                    "size:%s" % target.id,
                )


def _tag_namespace(name: str) -> Optional[str]:
    if name.startswith("TYPE_") and name != "TYPE_NAMES":
        return "frame"
    if name.startswith("VALUE_") or name.startswith("OBJECT_TAG_"):
        return "tlv"
    return None


class WireTagRule(Rule):
    """WIRE-TAG-DUP / WIRE-TAG-SCATTER: one registry, unique numbers."""

    rule_id = "WIRE-TAG"
    rule_ids = ("WIRE-TAG-DUP", "WIRE-TAG-SCATTER")

    def applies(self, module: str) -> bool:
        return module_matches(module, WIRE_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module == TAG_REGISTRY_MODULE:
            yield from self._check_registry(ctx)
        else:
            yield from self._check_consumer(ctx)
        yield from self._check_dict_displays(ctx)

    def _check_registry(self, ctx: ModuleContext) -> Iterator[Finding]:
        seen: Dict[Tuple[str, int], str] = {}
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            namespace = _tag_namespace(target.id)
            if namespace is None:
                continue
            if not (isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)):
                continue
            value = node.value.value
            other = seen.get((namespace, value))
            if other is not None:
                yield Finding(
                    "WIRE-TAG-DUP", ctx.path, ctx.module,
                    node.lineno, node.col_offset,
                    "tag %s = %d collides with %s in the %r "
                    "byte-space" % (target.id, value, other, namespace),
                    "dup:%s" % target.id,
                )
            else:
                seen[(namespace, value)] = target.id

    def _check_consumer(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Name)
                        and _TAG_NAME.match(target.id)):
                    continue
                if isinstance(node.value, ast.Constant) and \
                        isinstance(node.value.value, int):
                    yield Finding(
                        "WIRE-TAG-SCATTER", ctx.path, ctx.module,
                        node.lineno, node.col_offset,
                        "%s bound to an integer literal outside the "
                        "tag registry; define it in repro.wire.tags "
                        "and import it" % target.id,
                        "scatter:%s" % target.id,
                    )

    def _check_dict_displays(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Registry-style dict displays: duplicate *literal* keys are
        # silently collapsed by Python, so the AST is the only place
        # the collision is still visible.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign) or \
                    not isinstance(node.value, ast.Dict):
                continue
            target = node.targets[0] if len(node.targets) == 1 else None
            if not isinstance(target, ast.Name):
                continue
            if not (target.id.endswith("_NAMES")
                    or target.id.endswith("_SCHEMAS")
                    or target.id.endswith("_TAGS")):
                continue
            seen: Dict[int, int] = {}
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and \
                        isinstance(key.value, int):
                    value = key.value
                elif isinstance(key, ast.Name):
                    continue  # name refs are the registry's job to dedup
                else:
                    continue
                if value in seen:
                    yield Finding(
                        "WIRE-TAG-DUP", ctx.path, ctx.module,
                        key.lineno, key.col_offset,
                        "duplicate key %d in %s: Python keeps only "
                        "the last entry" % (value, target.id),
                        "dictdup:%s:%d" % (target.id, value),
                    )
                else:
                    seen[value] = key.lineno
