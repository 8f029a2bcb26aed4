"""repro.digraph against networkx, its former implementation.

Topological order feeds ``seq(...)`` and so fixes CNF numbering,
solver counters and witnesses; ``find_cycle`` is what
``DependencyCycleError`` prints.  Both must keep the exact orders the
analyses had on networkx, so every traversal here is compared
sequence for sequence on seeded random graphs.  networkx is a test-only
dependency.
"""

import random

import pytest

from repro import digraph
from repro.digraph import DiGraph

nx = pytest.importorskip("networkx")

SEEDS = range(60)


def _random_calls(rng, acyclic):
    """One build script (a list of graph calls) replayed on both
    implementations: nodes added explicitly and implicitly by edges,
    edges in random order, the odd duplicate edge and node removal."""
    names = [f"R{i}[{rng.choice('abc')}]" for i in range(rng.randint(1, 12))]
    rng.shuffle(names)
    rank = {n: i for i, n in enumerate(rng.sample(names, len(names)))}
    calls = [("add_node", n) for n in names if rng.random() < 0.6]
    for _ in range(rng.randint(0, 3 * len(names))):
        u, v = rng.choice(names), rng.choice(names)
        if acyclic and rank[u] >= rank[v]:
            u, v = v, u
            if u == v:
                continue
        calls.append(("add_edge", u, v))
    calls.append(("add_nodes_from", names))
    if len(names) > 3 and rng.random() < 0.5:
        calls.append(("remove_node", rng.choice(names)))
    if rng.random() < 0.5:
        calls.append(("copy",))
    return calls


def _build(cls, calls):
    graph = cls()
    for name, *args in calls:
        if name == "copy":
            graph = graph.copy()
        else:
            getattr(graph, name)(*args)
    return graph


def _pair(seed, acyclic):
    calls = _random_calls(random.Random(seed), acyclic)
    return _build(DiGraph, calls), _build(nx.DiGraph, calls)


@pytest.mark.parametrize("seed", SEEDS)
def test_structure_iterates_like_networkx(seed):
    ours, ref = _pair(seed, acyclic=seed % 2 == 0)
    assert list(ours) == list(ref)
    assert list(ours.nodes) == list(ref.nodes)
    assert list(ours.edges) == list(ref.edges)
    assert ours.number_of_nodes() == ref.number_of_nodes()
    assert ours.number_of_edges() == ref.number_of_edges()
    for n in ref:
        assert list(ours.successors(n)) == list(ref.successors(n))
        assert list(ours.predecessors(n)) == list(ref.predecessors(n))
        assert ours.out_degree(n) == ref.out_degree(n)
    for u in ref:
        for v in ref:
            assert ours.has_edge(u, v) == ref.has_edge(u, v)


@pytest.mark.parametrize("seed", SEEDS)
def test_dag_orders_match_networkx(seed):
    ours, ref = _pair(seed, acyclic=True)
    assert digraph.topological_sort(ours) == list(nx.topological_sort(ref))
    for key in (None, str, len):
        assert digraph.lexicographical_topological_sort(ours, key=key) == list(
            nx.lexicographical_topological_sort(ref, key=key)
        )
    keep = [n for i, n in enumerate(ref) if i % 2 == 0]
    assert digraph.lexicographical_topological_sort(
        ours.subgraph(keep), key=str
    ) == list(nx.lexicographical_topological_sort(ref.subgraph(keep), key=str))
    assert digraph.find_cycle(ours) == []
    with pytest.raises(nx.NetworkXNoCycle):
        nx.find_cycle(ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_reachability_matches_networkx(seed):
    ours, ref = _pair(seed, acyclic=seed % 2 == 0)
    for n in ref:
        mine, theirs = digraph.descendants(ours, n), nx.descendants(ref, n)
        assert mine == theirs and list(mine) == list(theirs)
        mine, theirs = digraph.ancestors(ours, n), nx.ancestors(ref, n)
        assert mine == theirs and list(mine) == list(theirs)
        for m in ref:
            assert digraph.has_path(ours, n, m) == nx.has_path(ref, n, m)


@pytest.mark.parametrize("seed", SEEDS)
def test_find_cycle_matches_networkx(seed):
    ours, ref = _pair(seed, acyclic=False)
    try:
        expected = list(nx.find_cycle(ref))
    except nx.NetworkXNoCycle:
        expected = []
        assert digraph.topological_sort(ours) == list(nx.topological_sort(ref))
    else:
        with pytest.raises(ValueError):
            digraph.topological_sort(ours)
        with pytest.raises(ValueError):
            digraph.lexicographical_topological_sort(ours)
    assert digraph.find_cycle(ours) == expected


def test_node_attributes_and_copy_independence():
    graph = DiGraph()
    graph.add_node("a", entry=1)
    graph.add_node("a", extra=2)
    graph.add_edge("a", "b")
    assert graph.nodes["a"] == {"entry": 1, "extra": 2}
    assert list(graph.nodes(data=True)) == [("a", {"entry": 1, "extra": 2}), ("b", {})]
    clone = graph.copy()
    clone.nodes["a"]["entry"] = 9
    clone.remove_node("b")
    assert graph.nodes["a"]["entry"] == 1
    assert graph.has_edge("a", "b") and "b" not in clone
    assert len(graph) == 2 and "a" in graph
