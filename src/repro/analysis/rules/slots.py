"""``__slots__`` completeness lints for hot-path modules.

The dispatch kernel's ~3.0M events/s rests on allocation discipline:
per-message objects (frames, messages, tokens) and per-node state
machines are ``__slots__`` classes, so attribute access is an array
index and no per-instance ``__dict__`` is allocated.  A single
forgotten slot silently re-grows the ``__dict__`` on every instance —
no test fails, the kernel just gets slower.  Three rules pin it:

* ``SLOT-MISSING`` — a class in a hot-path module declares no
  ``__slots__`` at all (exempt: enums, exceptions, NamedTuples,
  Protocols, and dataclasses — those get ``SLOT-DATACLASS``).
* ``SLOT-INCOMPLETE`` — ``__slots__`` exists but some ``self.x``
  assignment targets an attribute not in it (nor in a same-module
  base's slots): instances grow a ``__dict__`` for the spill.
* ``SLOT-DATACLASS`` — a ``@dataclass`` in a hot-path module without
  ``slots=True``.

Classes whose bases are defined outside the module are skipped — their
layout cannot be judged statically from one file.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .base import (
    HOT_PATH_MODULES,
    Finding,
    ModuleContext,
    Rule,
    module_matches,
)

#: Base-class names that exempt a class from slot checking entirely.
EXEMPT_BASES = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "RuntimeError", "AssertionError", "NamedTuple", "Protocol", "Enum",
    "IntEnum", "Flag", "IntFlag", "ABC",
})


def _base_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = _base_name(target)
        if name == "dataclass":
            return deco
    return None


def _dataclass_has_slots(deco: ast.AST) -> bool:
    if not isinstance(deco, ast.Call):
        return False
    for keyword in deco.keywords:
        if keyword.arg == "slots":
            return isinstance(keyword.value, ast.Constant) and \
                keyword.value.value is True
    return False


def _declared_slots(node: ast.ClassDef) -> Optional[Set[str]]:
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and \
                        target.id == "__slots__":
                    try:
                        value = ast.literal_eval(item.value)
                    except (ValueError, SyntaxError):
                        return set()
                    if isinstance(value, str):
                        return {value}
                    return set(value)
    return None


def _self_stores(node: ast.ClassDef) -> List[Tuple[str, ast.AST]]:
    """(attribute, site) for every ``self.x = ...`` in the class body."""
    stores: List[Tuple[str, ast.AST]] = []
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not item.args.args:
            continue
        self_name = item.args.args[0].arg
        for sub in ast.walk(item):
            if isinstance(sub, ast.Attribute) and \
                    isinstance(sub.ctx, ast.Store) and \
                    isinstance(sub.value, ast.Name) and \
                    sub.value.id == self_name:
                stores.append((sub.attr, sub))
            elif isinstance(sub, ast.AugAssign) and \
                    isinstance(sub.target, ast.Attribute) and \
                    isinstance(sub.target.value, ast.Name) and \
                    sub.target.value.id == self_name:
                stores.append((sub.target.attr, sub))
    return stores


def _class_properties(node: ast.ClassDef) -> Set[str]:
    """Names bound at class level (descriptors, class attrs, methods)."""
    names: Set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(item, ast.AnnAssign) and \
                isinstance(item.target, ast.Name):
            names.add(item.target.id)
    return names


class SlotsRule(Rule):
    """SLOT-MISSING / SLOT-INCOMPLETE / SLOT-DATACLASS (one walker)."""

    rule_id = "SLOT"
    rule_ids = ("SLOT-MISSING", "SLOT-INCOMPLETE", "SLOT-DATACLASS")

    def applies(self, module: str) -> bool:
        return module_matches(module, HOT_PATH_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        classes: Dict[str, ast.ClassDef] = {
            node.name: node for node in ctx.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for name, node in classes.items():
            yield from self._check_class(ctx, node, classes)

    def _resolve_bases(self, node: ast.ClassDef,
                       classes: Dict[str, ast.ClassDef],
                       ) -> Tuple[Optional[Set[str]], bool]:
        """(union of same-module base slots, all bases resolvable)."""
        slots: Set[str] = set()
        for base in node.bases:
            name = _base_name(base)
            if name in EXEMPT_BASES or (name or "").endswith(
                    ("Error", "Exception", "Warning")):
                return None, False  # exception/enum family: exempt
            if name in classes:
                parent = classes[name]
                parent_slots = _declared_slots(parent)
                if parent_slots is None:
                    return None, False  # unslotted base: __dict__ anyway
                slots |= parent_slots
                parent_base_slots, ok = self._resolve_bases(
                    parent, classes)
                if not ok and parent.bases:
                    return None, False
                slots |= parent_base_slots or set()
            elif name is not None:
                return None, False  # base defined elsewhere: skip class
        return slots, True

    def _check_class(self, ctx: ModuleContext, node: ast.ClassDef,
                     classes: Dict[str, ast.ClassDef],
                     ) -> Iterator[Finding]:
        deco = _dataclass_decorator(node)
        if deco is not None:
            if not _dataclass_has_slots(deco):
                yield Finding(
                    "SLOT-DATACLASS", ctx.path, ctx.module,
                    node.lineno, node.col_offset,
                    "dataclass %s in a hot-path module lacks "
                    "slots=True; instances carry a __dict__" % node.name,
                    node.name,
                )
            return
        base_slots, resolvable = self._resolve_bases(node, classes)
        if not resolvable and node.bases:
            return
        declared = _declared_slots(node)
        if declared is None:
            yield Finding(
                "SLOT-MISSING", ctx.path, ctx.module,
                node.lineno, node.col_offset,
                "class %s in a hot-path module declares no __slots__"
                % node.name,
                node.name,
            )
            return
        covered = declared | (base_slots or set()) | \
            _class_properties(node)
        seen: Set[str] = set()
        for attr, site in _self_stores(node):
            if attr in covered or attr in seen:
                continue
            seen.add(attr)
            yield Finding(
                "SLOT-INCOMPLETE", ctx.path, ctx.module,
                site.lineno, site.col_offset,
                "%s.%s is assigned on self but missing from "
                "__slots__; instances grow a __dict__"
                % (node.name, attr),
                "%s.%s" % (node.name, attr),
            )
