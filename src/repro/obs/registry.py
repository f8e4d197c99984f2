"""One metrics registry for every layer of the system.

Every counter the system reports already exists as a plain attribute
somewhere — ``nic.frames_sent``, ``stats.tokens_handled``,
``transport.drops_malformed`` — incremented with a bare ``+= 1`` by the
code that owns it.  The :class:`MetricsRegistry` holds one kind of
metric: a *view* onto such a value, read only when a snapshot is taken.
:meth:`MetricsRegistry.bind` views an attribute,
:meth:`MetricsRegistry.bind_fn` a value that needs computing; neither
adds anything to a hot path.  The registry gives them one named,
node-scoped namespace with cluster sums and a byte-stable JSON
snapshot.

Naming scheme (see ``docs/OBSERVABILITY.md``): dotted
``layer.component.metric`` paths, lower_snake_case leaves, e.g.
``net.nic.frames_sent``, ``core.participant.tokens_handled``,
``membership.gossip.messages_sent``.  The node scope is the integer
pid; ``node=None`` means a cluster-wide (unscoped) metric.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..records import write_record

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named views with per-node scopes and cluster sums."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        #: (name, node) -> reader, in registration order.
        self._metrics: Dict[Tuple[str, Optional[int]], Callable[[], Any]] = {}

    # -- registration -------------------------------------------------------

    def bind(
        self,
        name: str,
        obj: Any,
        attr: str,
        node: Optional[int] = None,
    ) -> None:
        """View an existing attribute counter with zero hot-path cost.

        The owning object keeps incrementing its plain attribute; the
        registry reads ``getattr(obj, attr)`` only when a snapshot is
        taken.  Re-binding the same (name, node) replaces the view —
        restarts re-bind their fresh incarnation's counters.
        """
        self._metrics[(name, node)] = partial(getattr, obj, attr)

    def bind_fn(
        self,
        name: str,
        fn: Callable[[], Any],
        node: Optional[int] = None,
    ) -> None:
        """Like :meth:`bind` for values that need computing."""
        self._metrics[(name, node)] = fn

    # -- reading ------------------------------------------------------------

    def value(self, name: str, node: Optional[int] = None):
        """The exact value of one view (KeyError if absent)."""
        return self._metrics[(name, node)]()

    def names(self) -> List[str]:
        """Every registered metric name, sorted, node scopes collapsed."""
        return sorted({name for name, _node in self._metrics})

    def nodes(self) -> List[int]:
        """Every node scope that has at least one metric."""
        return sorted({
            node for _name, node in self._metrics if node is not None
        })

    def total(self, name: str):
        """Cluster aggregate: the sum across every node scope (and
        unscoped).  KeyError when the name is entirely unknown."""
        values = [
            read()
            for (metric_name, _node), read in self._metrics.items()
            if metric_name == name
        ]
        if not values:
            raise KeyError(name)
        return sum(values)

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready view: per-node blocks plus cluster sums.

        Shape::

            {"schema": 1,
             "nodes":   {"<pid>": {"<name>": value, ...}, ...},
             "cluster": {"<name>": summed-value, ...}}

        Keys sort deterministically so two snapshots of identical state
        are byte-identical when dumped with ``sort_keys=True``.
        """
        nodes: Dict[str, Dict[str, Any]] = {}
        cluster: Dict[str, Any] = {}
        for (name, node), read in self._metrics.items():
            value = read()
            if node is not None:
                nodes.setdefault(str(node), {})[name] = value
            cluster[name] = cluster[name] + value if name in cluster else value
        return {
            "schema": 1,
            "nodes": {k: dict(sorted(v.items())) for k, v in sorted(nodes.items())},
            "cluster": dict(sorted(cluster.items())),
        }

    def write_json(self, path: str) -> str:
        """Write :meth:`snapshot` as a byte-stable JSON record."""
        return write_record(self.snapshot(), path)
