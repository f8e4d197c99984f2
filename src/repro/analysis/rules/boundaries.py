"""Sans-IO boundary lint.

The protocol engine is sans-IO by construction (DESIGN.md): handling a
message returns what to send and deliver; drivers own sockets, clocks and threads.  The
boundary is what makes the packet-level simulator a *proof* about the
production engine — the moment ``repro.core`` imports ``socket`` the
two worlds can diverge.  ``IO-IMPORT`` rejects any import of an IO or
concurrency module (``socket``, ``asyncio``, ``threading``,
``selectors``, …) inside the sans-IO packages; only the driver-side
packages (``emulation``, ``spreadlike.daemon``, ``harness``, ``bench``)
may touch them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import (
    IO_BOUNDARY_BANNED,
    SANS_IO_MODULES,
    Finding,
    ModuleContext,
    Rule,
    module_matches,
)


class SansIOImportRule(Rule):
    """IO-IMPORT: IO/concurrency imports inside sans-IO modules."""

    rule_id = "IO-IMPORT"

    def applies(self, module: str) -> bool:
        return module_matches(module, SANS_IO_MODULES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports stay inside the package
                names = [node.module.split(".")[0]]
            else:
                continue
            for name in names:
                if name in IO_BOUNDARY_BANNED:
                    yield self.finding(
                        ctx, node,
                        "sans-IO module imports '%s'; IO and "
                        "concurrency belong to the drivers "
                        "(emulation/, spreadlike/daemon, harness/)"
                        % name,
                        "import:%s" % name,
                    )
