"""Package exports that load on first use (PEP 562).

A package ``__init__`` names each public name's home submodule once::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "cluster": ("SimCluster", "run_point"),
    })

``from repro.sim import SimCluster`` then imports ``repro.sim.cluster``
and nothing else, so a run loads only the layers it uses.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose globals
    are *namespace*, exporting ``{submodule: names}`` from *table*."""
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{home[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    # Importing a submodule binds it on the package under its own name;
    # a public name equal to a submodule's is bound now so it wins.
    for name in sorted(set(home) & set(table)):
        __getattr__(name)
    return list(home), __getattr__, __dir__
