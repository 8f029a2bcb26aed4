"""The resource catalog: the output of evaluating a manifest.

The catalog holds every declared resource (primitive and container
instances), explicit dependency edges, virtualness, containment, and
the post-evaluation passes of §3.1:

* collector realization and attribute overrides (global, non-modular);
* container expansion — edges mentioning ``Class['x']``, user-define
  instances, or ``Stage['x']`` fan out to their contained primitives;
* stage elimination — inter-stage edges become inter-resource edges;
* file auto-require (a file depends on the file resource managing its
  parent directory — the one dependency Puppet infers, Fig. 1 footnote);
* cycle detection (the Fig. 3b failure mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.digraph import DiGraph, find_cycle
from repro.errors import DependencyCycleError, PuppetEvalError
from repro.fs.paths import Path
from repro.resources.base import METAPARAMETERS, Resource, ResourceRef
from repro.puppet.values import RefValue, Value

CONTAINER_TYPES = frozenset({"class", "stage"})
"""Types that never reach the final graph themselves."""

DEFAULT_STAGE = "main"


@dataclass
class CatalogResource:
    resource: Resource
    containers: Tuple[str, ...] = ()  # refs of enclosing class/define instances
    virtual: bool = False
    exported: bool = False
    position: int = 0
    is_define_instance: bool = False
    stage: Optional[str] = None  # classes only

    @property
    def ref(self) -> ResourceRef:
        return self.resource.ref

    @property
    def key(self) -> Tuple[str, str]:
        return (self.resource.rtype, self.resource.title)


@dataclass
class Edge:
    source: RefValue
    target: RefValue
    kind: str = "before"  # "before" | "notify" (same ordering effect)
    # Span of the declaration that created the edge (0 = unknown).
    line: int = 0
    col: int = 0


class Catalog:
    """Mutable catalog being built by the evaluator."""

    def __init__(self) -> None:
        self.resources: Dict[Tuple[str, str], CatalogResource] = {}
        self.edges: List[Edge] = []
        self._position = 0

    # -- declaration ---------------------------------------------------------

    def add(self, entry: CatalogResource) -> None:
        key = entry.key
        if key in self.resources:
            raise PuppetEvalError(
                f"duplicate resource declaration: {entry.ref}"
            )
        entry.position = self._position
        self._position += 1
        self.resources[key] = entry

    def has(self, rtype: str, title: str) -> bool:
        return (rtype.lower(), title) in self.resources

    def get(self, rtype: str, title: str) -> Optional[CatalogResource]:
        return self.resources.get((rtype.lower(), title))

    def add_edge(
        self,
        source: RefValue,
        target: RefValue,
        kind: str = "before",
        line: int = 0,
        col: int = 0,
    ) -> None:
        self.edges.append(Edge(source, target, kind, line=line, col=col))

    # -- queries ---------------------------------------------------------------

    def members_of(self, container_ref: str) -> List[CatalogResource]:
        """Resources (transitively) contained in a class/define/stage."""
        out = []
        for entry in self.resources.values():
            if container_ref in entry.containers:
                out.append(entry)
        return out

    def real_resources(self) -> List[CatalogResource]:
        return [
            e
            for e in self.resources.values()
            if not e.virtual and not e.exported
        ]

    def primitive_resources(self) -> List[CatalogResource]:
        return [
            e
            for e in self.real_resources()
            if e.resource.rtype not in CONTAINER_TYPES
            and not e.is_define_instance
        ]

    # -- reference expansion -----------------------------------------------------

    def expand_ref(self, ref: RefValue) -> List[CatalogResource]:
        """A reference to a primitive resource is itself; a reference
        to a class/define-instance/stage is its transitive members."""
        rtype = ref.rtype.lower()
        if rtype == "stage":
            members: List[CatalogResource] = []
            for entry in self.resources.values():
                if (
                    entry.resource.rtype == "class"
                    and (entry.stage or DEFAULT_STAGE) == ref.title
                ):
                    members.extend(self.members_of(_container_id(entry)))
            return [m for m in members if _is_primitive(m)]
        entry = self.get(rtype, ref.title)
        if entry is None:
            raise PuppetEvalError(f"reference to undeclared resource {ref}")
        if entry.resource.rtype == "class" or entry.is_define_instance:
            members = self.members_of(_container_id(entry))
            return [m for m in members if _is_primitive(m)]
        return [entry]

    # -- final graph ----------------------------------------------------------------

    def build_graph(self) -> DiGraph:
        """Produce the primitive resource graph (paper Fig. 4): nodes
        are primitive resource refs (as strings), edges point
        prerequisite → dependent.  Raises on cycles."""
        graph = DiGraph()
        primitives = self.primitive_resources()
        for entry in primitives:
            graph.add_node(str(entry.ref), entry=entry)

        def connect(src: CatalogResource, dst: CatalogResource) -> None:
            if src.key == dst.key:
                return
            if _is_primitive(src) and _is_primitive(dst):
                graph.add_edge(str(src.ref), str(dst.ref))

        # Explicit edges (arrows + metaparameters), containers expanded.
        for edge in self.edges:
            sources = self.expand_ref(edge.source)
            targets = self.expand_ref(edge.target)
            for s in sources:
                for t in targets:
                    connect(s, t)

        # Container-implied ordering: a dependency on a container also
        # orders against resources *declared by* nested containers —
        # handled by expand_ref's transitive membership.

        # Stage ordering: edges between stage resources were recorded
        # as Stage[...] references already; additionally every
        # non-main stage with no explicit relation is left unordered,
        # matching Puppet (stages require explicit ordering).

        # File auto-require: parent directory files.
        by_path: Dict[Path, CatalogResource] = {}
        for entry in primitives:
            if entry.resource.rtype == "file":
                raw = entry.resource.get_str("path") or entry.resource.title
                try:
                    by_path[Path.of(raw)] = entry
                except ValueError:
                    pass
        for path, entry in by_path.items():
            parent = path.parent()
            if not parent.is_root and parent in by_path:
                connect(by_path[parent], entry)

        cycle = find_cycle(graph)
        if cycle:
            raise DependencyCycleError([edge[0] for edge in cycle])
        return graph


def _container_id(entry: CatalogResource) -> str:
    return str(entry.ref)


def _is_primitive(entry: CatalogResource) -> bool:
    return (
        entry.resource.rtype not in CONTAINER_TYPES
        and not entry.is_define_instance
        and not entry.virtual
        and not entry.exported
    )


# -- collectors ----------------------------------------------------------------


def collector_matches(
    entry: CatalogResource, query, evaluate
) -> bool:
    """Does a catalog resource match a collector query?

    ``query`` is an :class:`repro.puppet.ast_nodes.CollectorQuery` (or
    None for match-all); ``evaluate`` maps its value expressions to
    runtime values."""
    if query is None:
        return True
    if query.op in ("and", "or"):
        left = collector_matches(entry, query.left, evaluate)
        right = collector_matches(entry, query.right, evaluate)
        return (left and right) if query.op == "and" else (left or right)
    wanted = evaluate(query.value)
    if query.attr == "title":
        actual: Value = entry.resource.title
    else:
        actual = entry.resource.attributes.get(query.attr)
    from repro.puppet.values import values_equal

    if query.op == "==":
        return values_equal(actual, wanted)
    return not values_equal(actual, wanted)
