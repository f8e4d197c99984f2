"""Determinism lints for the sans-IO protocol modules.

Every replica-local decision in a total-order protocol must be a pure
function of delivered events — a wall-clock read, an unseeded RNG, or a
hash-order-dependent iteration in the core is a fingerprint flake (or a
real divergence) waiting to happen.  These rules make the discipline
the ROADMAP describes machine-checkable:

* ``DET-TIME`` — no wall-clock or CPU-clock reads: the ``time`` module
  is banned outright (the sim clock or the driver supplies time), as
  are ``datetime.now``/``utcnow``/``today``.
* ``DET-ENTROPY`` — no OS entropy: ``os.urandom``, ``uuid.uuid1``/
  ``uuid4``, the ``secrets`` module, ``random.SystemRandom``.
* ``DET-RNG`` — no module-level ``random`` state: calls like
  ``random.random()`` share one process-global generator whose stream
  depends on every other caller; protocol code must thread an
  explicitly seeded ``random.Random(seed)`` instead.
* ``DET-SETITER`` — no order-sensitive iteration over ``set``
  expressions: set iteration order depends on element hashes (and, for
  strings, on ``PYTHONHASHSEED``), so a bare ``for`` / list build over
  a set display, ``set()`` call, set comprehension or set-algebra
  expression is flagged unless wrapped in an order-erasing consumer
  (``sorted``, ``min``, ``max``, ``sum``, ``len``, ``any``, ``all``,
  ``set``/``frozenset``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from .base import (
    SANS_IO_MODULES,
    Finding,
    ModuleContext,
    Rule,
    module_matches,
    scope_qualname,
)

BANNED_TIME_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

BANNED_ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
})

#: Module-level ``random.*`` functions that read the shared global RNG.
GLOBAL_RNG_FNS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss", "normalvariate",
    "lognormvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
    "seed",
})

#: Callables that consume an iterable without exposing its order.
ORDER_ERASING = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})


class _SansIORule(Rule):
    def applies(self, module: str) -> bool:
        return module_matches(module, SANS_IO_MODULES)


class BannedTimeRule(_SansIORule):
    """DET-TIME: wall-clock and CPU-clock reads in sans-IO modules."""

    rule_id = "DET-TIME"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "time":
                        yield self.finding(
                            ctx, node,
                            "sans-IO module imports 'time'; take the "
                            "clock from the driver instead",
                            "import:time",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "time" and node.level == 0:
                yield self.finding(
                    ctx, node,
                    "sans-IO module imports from 'time'; take the "
                    "clock from the driver instead",
                    "import:time",
                )
            elif isinstance(node, ast.Call):
                target = ctx.resolve_call(node.func)
                if target in BANNED_TIME_CALLS:
                    yield self.finding(
                        ctx, node,
                        "call to %s in sans-IO module; clocks must come "
                        "from the driver" % target,
                        "%s@%s" % (target, scope_qualname(ctx.tree, node)),
                    )


class BannedEntropyRule(_SansIORule):
    """DET-ENTROPY: OS entropy sources in sans-IO modules."""

    rule_id = "DET-ENTROPY"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "secrets":
                        yield self.finding(
                            ctx, node,
                            "sans-IO module imports 'secrets' (OS "
                            "entropy); derive values from the seed",
                            "import:secrets",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "secrets" and \
                    node.level == 0:
                yield self.finding(
                    ctx, node,
                    "sans-IO module imports from 'secrets' (OS "
                    "entropy); derive values from the seed",
                    "import:secrets",
                )
            elif isinstance(node, ast.Call):
                target = ctx.resolve_call(node.func)
                if target in BANNED_ENTROPY_CALLS:
                    yield self.finding(
                        ctx, node,
                        "call to %s in sans-IO module; all randomness "
                        "must derive from the run seed" % target,
                        "%s@%s" % (target, scope_qualname(ctx.tree, node)),
                    )


class UnseededRngRule(_SansIORule):
    """DET-RNG: process-global ``random`` state in sans-IO modules."""

    rule_id = "DET-RNG"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "random" and \
                    node.level == 0:
                pulled = sorted(
                    alias.name for alias in node.names
                    if alias.name in GLOBAL_RNG_FNS
                )
                if pulled:
                    yield self.finding(
                        ctx, node,
                        "imports global-RNG function(s) %s from "
                        "'random'; use a seeded random.Random instance"
                        % ", ".join(pulled),
                        "import:random-global",
                    )
            elif isinstance(node, ast.Call):
                target = ctx.resolve_call(node.func)
                if target is None:
                    continue
                parts = target.split(".")
                if parts[0] != "random" or len(parts) != 2:
                    continue
                if parts[1] in GLOBAL_RNG_FNS:
                    yield self.finding(
                        ctx, node,
                        "random.%s() uses the process-global RNG; "
                        "thread a seeded random.Random through "
                        "instead" % parts[1],
                        "random.%s@%s"
                        % (parts[1], scope_qualname(ctx.tree, node)),
                    )
                elif parts[1] == "Random" and not node.args and \
                        not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "random.Random() without a seed draws one "
                        "from OS entropy; pass an explicit seed",
                        "random.Random@%s"
                        % scope_qualname(ctx.tree, node),
                    )


def _is_set_expr(node: ast.AST, local_sets: Set[str]) -> bool:
    """True when the expression is syntactically set-valued."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return _is_set_expr(node.left, local_sets) or \
            _is_set_expr(node.right, local_sets)
    return False


class SetIterationRule(_SansIORule):
    """DET-SETITER: order-sensitive iteration over set expressions."""

    rule_id = "DET-SETITER"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # One pass per function scope (plus the module top level): track
        # local names that are only ever assigned set expressions, then
        # flag order-sensitive iterations.  Tracking is deliberately
        # simple — single-scope, syntactic — to stay predictable.
        scopes = [ctx.tree] + [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            yield from self._check_scope(ctx, scope)

    def _scope_body_nodes(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk the scope without descending into nested functions."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _local_set_names(self, scope: ast.AST) -> Set[str]:
        assigned_set: Dict[str, bool] = {}
        for node in self._scope_body_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                is_set = _is_set_expr(node.value, set())
                if name in assigned_set:
                    assigned_set[name] = assigned_set[name] and is_set
                else:
                    assigned_set[name] = is_set
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and \
                    isinstance(node.target, ast.Name):
                # Augmented targets keep whatever classification the
                # plain assignments gave them; annotations without a
                # set value reset nothing either.
                continue
        return {name for name, is_set in assigned_set.items() if is_set}

    def _check_scope(self, ctx: ModuleContext,
                     scope: ast.AST) -> Iterator[Finding]:
        local_sets = self._local_set_names(scope)
        qual = "" if isinstance(scope, ast.Module) else \
            scope_qualname(ctx.tree, scope) or getattr(scope, "name", "")
        if not isinstance(scope, ast.Module):
            qual = qual or scope.name

        def emit(node: ast.AST, what: str) -> Finding:
            return self.finding(
                ctx, node,
                "%s iterates a set in hash order; wrap in sorted() "
                "(set order varies with PYTHONHASHSEED)" % what,
                "set-iter@%s:%d" % (
                    qual,
                    getattr(node, "lineno", 0)
                    - getattr(scope, "lineno", 0),
                ),
            )

        # Arguments handed straight to an order-erasing consumer are
        # exempt: sorted(x for x in some_set) is the *fix*, not a bug.
        exempt = set()
        nodes = list(self._scope_body_nodes(scope))
        for node in nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ORDER_ERASING:
                for arg in node.args:
                    exempt.add(id(arg))

        for node in nodes:
            if isinstance(node, ast.For) and \
                    _is_set_expr(node.iter, local_sets):
                yield emit(node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                if id(node) in exempt:
                    continue
                for comp in node.generators:
                    if _is_set_expr(comp.iter, local_sets):
                        yield emit(comp.iter, "comprehension")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name):
                fn = node.func.id
                if fn in ("list", "tuple", "iter", "enumerate") and \
                        node.args and _is_set_expr(node.args[0],
                                                   local_sets):
                    yield emit(node, "%s()" % fn)
