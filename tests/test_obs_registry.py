"""Unit tests for the unified metrics registry (repro.obs.registry)."""

import json

import pytest

from repro.obs.registry import MetricsRegistry


class _Owner:
    def __init__(self, hits=0, level=0):
        self.hits = hits
        self.level = level


# -- views -------------------------------------------------------------------

def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    owner = _Owner()
    registry.bind("core.test.count", owner, "hits", node=0)
    registry.bind_fn("core.test.level", lambda: owner.level * 3, node=0)
    owner.hits += 5
    owner.level = 3
    assert registry.value("core.test.count", node=0) == 5
    assert registry.value("core.test.level", node=0) == 9
    owner.level -= 1
    assert registry.value("core.test.level", node=0) == 6


def test_bind_reads_live_attribute_at_snapshot_time():
    registry = MetricsRegistry()
    owner = _Owner()
    registry.bind("app.hits", owner, "hits", node=3)
    assert registry.value("app.hits", node=3) == 0
    owner.hits += 11
    assert registry.value("app.hits", node=3) == 11


def test_rebinding_replaces_the_view():
    registry = MetricsRegistry()
    old, fresh = _Owner(hits=7), _Owner(hits=2)
    registry.bind("app.hits", old, "hits", node=1)
    registry.bind("app.hits", _Owner(hits=100), "hits", node=2)
    # Restart semantics: the fresh incarnation's counter replaces the
    # old one's; a view of another kind replaces it the same way.
    registry.bind("app.hits", fresh, "hits", node=1)
    assert registry.value("app.hits", node=1) == 2
    registry.bind_fn("app.hits", lambda: 40, node=1)
    assert registry.value("app.hits", node=1) == 40
    # The other node scope is a separate view, untouched.
    assert registry.value("app.hits", node=2) == 100
    assert registry.total("app.hits") == 140
    assert registry.snapshot()["nodes"]["1"] == {"app.hits": 40}


def test_bind_fn_computes_at_snapshot_time():
    registry = MetricsRegistry()
    state = {"depth": 2}
    registry.bind_fn("app.depth", lambda: state["depth"])
    assert registry.value("app.depth") == 2
    state["depth"] = 9
    assert registry.value("app.depth") == 9


def test_unknown_metric_raises_key_error():
    registry = MetricsRegistry()
    registry.bind("app.hits", _Owner(), "hits", node=0)
    with pytest.raises(KeyError):
        registry.value("app.hits", node=1)
    with pytest.raises(KeyError):
        registry.value("app.misses", node=0)
    with pytest.raises(KeyError):
        registry.total("app.misses")


# -- aggregation -------------------------------------------------------------

def test_total_sums_across_node_scopes():
    registry = MetricsRegistry()
    for pid in range(3):
        registry.bind("c", _Owner(hits=pid + 1), "hits", node=pid)
    registry.bind("c", _Owner(hits=10), "hits")  # unscoped participates too
    assert registry.total("c") == 1 + 2 + 3 + 10


def test_names_and_nodes():
    registry = MetricsRegistry()
    owner = _Owner()
    registry.bind("b", owner, "hits", node=2)
    registry.bind("a", owner, "hits", node=1)
    registry.bind("a", owner, "hits", node=2)
    registry.bind_fn("c", lambda: 0)
    assert registry.names() == ["a", "b", "c"]
    assert registry.nodes() == [1, 2]


# -- snapshots ---------------------------------------------------------------

def _small_registry(order=(0, 1)):
    registry = MetricsRegistry()
    owners = {0: _Owner(hits=3, level=5), 1: _Owner(hits=4, level=0)}
    for pid in order:
        registry.bind("k", owners[pid], "hits", node=pid)
    registry.bind("g", owners[0], "level", node=0)
    registry.bind_fn("mean", lambda: 0.25)
    return registry


def test_snapshot_shape_and_aggregates():
    snap = _small_registry().snapshot()
    assert snap["schema"] == 1
    assert snap["nodes"]["0"] == {"g": 5, "k": 3}
    assert snap["nodes"]["1"]["k"] == 4
    assert snap["cluster"] == {"g": 5, "k": 7, "mean": 0.25}


def test_snapshot_is_byte_stable():
    a = json.dumps(_small_registry().snapshot(), indent=2, sort_keys=True)
    # Registration order does not reach the rendered snapshot.
    b = json.dumps(_small_registry(order=(1, 0)).snapshot(), indent=2,
                   sort_keys=True)
    assert a == b
    assert list(json.loads(a)) == ["cluster", "nodes", "schema"]


def test_write_json(tmp_path):
    registry = _small_registry()
    path = registry.write_json(str(tmp_path / "deeper" / "snap.json"))
    with open(path) as handle:
        blob = handle.read()
    assert blob == json.dumps(registry.snapshot(), indent=2,
                              sort_keys=True) + "\n"
    assert json.loads(blob) == registry.snapshot()
