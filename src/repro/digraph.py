"""A small directed graph and the graph algorithms the analyses use.

Resource graphs are tiny (the largest corpus manifest has 11 nodes),
so the stdlib suffices.  Nodes, and each node's successors and
predecessors, iterate in insertion order, and every traversal's visit
order is fixed by that order alone.  That matters: topological order
feeds ``seq(...)`` in idempotence, the pipeline and the audit, so it
fixes CNF variable numbering, solver counters and witnesses, and
``find_cycle``'s edge list is what ``DependencyCycleError`` prints.
The orders are those of the graph library the project used before;
``tests/test_digraph.py`` checks them against it on random graphs.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

Node = Hashable
Edge = Tuple[Node, Node]


class _Nodes(dict):
    """``graph.nodes``: node -> attribute dict, in insertion order;
    ``graph.nodes(data=True)`` gives ``(node, attrs)`` pairs."""

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class DiGraph:
    """Directed graph without parallel edges or edge attributes."""

    __slots__ = ("_node", "_succ", "_pred")

    def __init__(self) -> None:
        self._node: _Nodes = _Nodes()
        # node -> {neighbour: None}; dicts as insertion-ordered sets.
        self._succ: Dict[Node, Dict[Node, None]] = {}
        self._pred: Dict[Node, Dict[Node, None]] = {}

    def __iter__(self) -> Iterator[Node]:
        return iter(self._node)

    def __len__(self) -> int:
        return len(self._node)

    def __contains__(self, node: Node) -> bool:
        return node in self._node

    @property
    def nodes(self) -> _Nodes:
        return self._node

    @property
    def edges(self) -> List[Edge]:
        """Every edge, by source in node order, then by insertion."""
        return [(u, v) for u, nbrs in self._succ.items() for v in nbrs]

    def add_node(self, node: Node, **attr: Any) -> None:
        if node in self._node:
            self._node[node].update(attr)
            return
        self._node[node] = attr
        self._succ[node] = {}
        self._pred[node] = {}

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node) -> None:
        if u not in self._node:
            self.add_node(u)
        if v not in self._node:
            self.add_node(v)
        self._succ[u][v] = None
        self._pred[v][u] = None

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def remove_node(self, node: Node) -> None:
        del self._node[node]
        for v in self._succ.pop(node):
            del self._pred[v][node]
        for u in self._pred.pop(node):
            del self._succ[u][node]

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._succ.get(u, ())

    def successors(self, node: Node) -> Iterator[Node]:
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        return iter(self._pred[node])

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def number_of_nodes(self) -> int:
        return len(self._node)

    def number_of_edges(self) -> int:
        return sum(map(len, self._succ.values()))

    def copy(self) -> "DiGraph":
        """An independent copy.  It re-adds the edges in ``edges``
        order, so each node's predecessors come out in source node
        order rather than in their original insertion order."""
        return self._rebuilt(self._node)

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """The induced subgraph on ``nodes`` (those in the graph), as a
        new graph in this graph's node order."""
        keep = set(nodes)
        return self._rebuilt([n for n in self._node if n in keep])

    def _rebuilt(self, nodes: Iterable[Node]) -> "DiGraph":
        graph = DiGraph()
        for node in nodes:
            graph.add_node(node, **self._node[node])
        for u, v in self.edges:
            if u in graph._node and v in graph._node:
                graph.add_edge(u, v)
        return graph


def _kahn(graph: DiGraph) -> Tuple[Dict[Node, int], List[Node]]:
    """In-degrees of the nodes that have any, and the sources in node
    order."""
    indegree = {v: len(p) for v, p in graph._pred.items() if p}
    return indegree, [v for v, p in graph._pred.items() if not p]


def _no_cycle_left(indegree: Dict[Node, int]) -> None:
    if indegree:
        raise ValueError("graph contains a cycle")


def topological_sort(graph: DiGraph) -> List[Node]:
    """Kahn's walk generation by generation: sources in node order,
    then each node's newly freed children in edge-insertion order (a
    FIFO queue visits them in the same order).  Raises ``ValueError``
    on a cycle."""
    indegree, order = _kahn(graph)
    for node in order:
        for child in graph._succ[node]:
            indegree[child] -= 1
            if not indegree[child]:
                del indegree[child]
                order.append(child)
    _no_cycle_left(indegree)
    return order


def lexicographical_topological_sort(
    graph: DiGraph, key: Optional[Callable[[Node], Any]] = None
) -> List[Node]:
    """The topological order that always takes the ready node with the
    smallest ``key`` (ties by node order).  Raises ``ValueError`` on a
    cycle."""
    rank = {node: i for i, node in enumerate(graph._node)}

    def entry(node: Node) -> Tuple[Any, int, Node]:
        return (node if key is None else key(node)), rank[node], node

    indegree, sources = _kahn(graph)
    ready = [entry(node) for node in sources]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)[2]
        order.append(node)
        for child in graph._succ[node]:
            indegree[child] -= 1
            if not indegree[child]:
                del indegree[child]
                heapq.heappush(ready, entry(child))
    _no_cycle_left(indegree)
    return order


def _reach(adjacency: Dict[Node, Dict[Node, None]], source: Node) -> Set[Node]:
    """Nodes reachable from ``source``, never ``source`` itself, even
    on a cycle.  They are added breadth-first, so the set's iteration
    order is a function of the graph's insertion orders too."""
    seen = {source}
    found: Set[Node] = set()
    frontier = [source]
    for node in frontier:
        for child in adjacency[node]:
            if child not in seen:
                seen.add(child)
                found.add(child)
                frontier.append(child)
    return found


def descendants(graph: DiGraph, source: Node) -> Set[Node]:
    return _reach(graph._succ, source)


def ancestors(graph: DiGraph, source: Node) -> Set[Node]:
    return _reach(graph._pred, source)


def has_path(graph: DiGraph, source: Node, target: Node) -> bool:
    if target not in graph._node:
        raise KeyError(target)
    return source == target or target in _reach(graph._succ, source)


def find_cycle(graph: DiGraph) -> List[Edge]:
    """The first cycle a depth-first walk from the nodes in node order
    closes, as edges starting at the node it re-entered.  ``[]`` when
    the graph is acyclic."""
    done: Set[Node] = set()
    for start in graph._succ:
        if start in done:
            continue
        path = [start]
        on_path = {start: 0}
        walks = [iter(graph._succ[start])]
        while walks:
            for child in walks[-1]:
                if child in on_path:
                    loop = path[on_path[child]:] + [child]
                    return list(zip(loop, loop[1:]))
                if child not in done:
                    on_path[child] = len(path)
                    path.append(child)
                    walks.append(iter(graph._succ[child]))
                    break
            else:
                walks.pop()
                node = path.pop()
                del on_path[node]
                done.add(node)
    return []
