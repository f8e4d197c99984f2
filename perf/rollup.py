"""Traced pass, mechanism (b): run a segment under ``cProfile`` and roll
the self time (``tottime``) of every function up to its ``repro``
package.

A built-in has no file; its time is charged to the package of the
function that called it, edge by edge, because a ``dict.get`` made by
``core`` is ``core``'s cost.  Code outside ``src/repro`` — the standard
library, this benchmark's own driver — lands in ``other``, so the shares
always sum to 1.  cProfile inflates cheap Python calls relative to work
inside built-ins; the shares say where to look, and only the untraced
pass says how fast.
"""

from __future__ import annotations

import cProfile
import pstats
import re
from typing import Any, Callable, Dict, Tuple

_PACKAGE = re.compile(r"[/\\]repro[/\\]([A-Za-z_][A-Za-z0-9_]*)[/\\]")


def package_of(filename: str) -> str:
    """``.../repro/<package>/x.py`` -> ``<package>``; anything else ``other``."""
    match = _PACKAGE.search(filename)
    return match.group(1) if match else "other"


def self_time_by_package(stats: Dict[Tuple, Tuple]) -> Dict[str, float]:
    """Seconds of self time per package from a ``pstats.Stats().stats`` map."""
    seconds: Dict[str, float] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if filename != "~" and not filename.startswith("<"):
            package = package_of(filename)
            seconds[package] = seconds.get(package, 0.0) + tottime
            continue
        # A built-in (or exec'd string): split its self time over callers.
        charged = 0.0
        for (caller_file, _l, _n), edge in callers.items():
            package = package_of(caller_file)
            seconds[package] = seconds.get(package, 0.0) + edge[2]
            charged += edge[2]
        seconds["other"] = seconds.get("other", 0.0) + (tottime - charged)
    return seconds


def shares(seconds: Dict[str, float], layers) -> Dict[str, float]:
    """Share of the total for each name in ``layers`` plus ``other``,
    which also absorbs every package not listed."""
    total = sum(seconds.values())
    if total <= 0:
        raise ValueError("profile recorded no time")
    out = {layer: seconds.get(layer, 0.0) / total for layer in layers}
    out["other"] = 1.0 - sum(out.values())
    return out


def profile_call(fn: Callable[[], Any]) -> Tuple[Any, Dict[str, float]]:
    """Run ``fn`` under cProfile; returns (its result, seconds per package)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, self_time_by_package(pstats.Stats(profiler).stats)
