"""The end-to-end Rehearsal pipeline.

``Rehearsal`` ties the whole system together: Puppet source → catalog →
resource graph → FS programs → determinacy analysis → (if
deterministic) idempotence and invariant checks — the tool the paper's
§6 evaluates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Tuple

from repro.analysis.commutativity import Footprint, footprint
from repro.analysis.determinism import (
    DeterminismOptions,
    DeterminismResult,
    check_determinism,
)
from repro.analysis.idempotence import IdempotenceResult, check_idempotence
from repro.digraph import DiGraph, topological_sort
from repro.errors import ReproError, ResourceModelError
from repro.fs import Expr, seq
from repro.puppet.evaluator import Evaluator
from repro.puppet.parser import parse_manifest
from repro.resources.compiler import ModelContext, ResourceCompiler

if TYPE_CHECKING:
    from repro.analysis.invariants import FinalStateProperty, InvariantResult
    from repro.puppet.ast_nodes import Manifest
    from repro.puppet.catalog import Catalog
    from repro.resources.base import Resource


class Frontend(NamedTuple):
    """What the frontend builds from one manifest before any analysis:
    the catalog, the resource graph (Fig. 4), each node's FS program
    and that program's footprint (§4.3).  Elimination, pruning, race
    localization and lint all read ``footprints``, so each compiled
    program's footprint is computed once per verify."""

    catalog: "Catalog"
    graph: DiGraph
    programs: Dict[str, Expr]
    footprints: Dict[str, Footprint]


def build_frontend(
    manifest: "Manifest",
    context: ModelContext,
    node_name: str = "default",
    on_catalog: Optional[Callable[["Catalog"], None]] = None,
    on_model_error: Optional[
        Callable[[str, "Resource", ResourceModelError], None]
    ] = None,
) -> Frontend:
    """Parsed manifest → catalog → resource graph → FS programs.

    Raises the first error of any stage.  The hooks let a caller that
    reports stage by stage (the linter) run on this same code:
    ``on_catalog`` sees the catalog before the graph is built, and
    with ``on_model_error`` a resource that cannot be modeled is
    handed to the hook and left out of ``programs`` instead of
    raising.
    """
    catalog = Evaluator(facts=context.facts, node_name=node_name).evaluate(
        manifest
    )
    if on_catalog is not None:
        on_catalog(catalog)
    graph = catalog.build_graph()
    compiler = ResourceCompiler(context)
    programs: Dict[str, Expr] = {}
    for node, data in graph.nodes(data=True):
        resource = data["entry"].resource
        try:
            programs[node] = compiler.compile(resource)
        except ResourceModelError as exc:
            if on_model_error is None:
                raise
            on_model_error(node, resource, exc)
    footprints = {node: footprint(e) for node, e in programs.items()}
    return Frontend(catalog, graph, programs, footprints)


@dataclass
class VerificationReport:
    """Everything Rehearsal determined about one manifest."""

    manifest_name: str
    resource_count: int = 0
    deterministic: Optional[bool] = None
    idempotent: Optional[bool] = None
    determinism: Optional[DeterminismResult] = None
    idempotence: Optional[IdempotenceResult] = None
    error: Optional[str] = None
    error_transient: bool = False  # load-dependent (wall-clock timeout),
    # not a function of the manifest — never cached
    total_seconds: float = 0.0
    #: Resource ref (as graph-node string) → (line, col) of its
    #: declaration in the manifest source; 0 = span unknown.  Lets
    #: race messages say where the racing resources were declared.
    declared_at: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and bool(self.deterministic)
            and bool(self.idempotent)
        )

    @property
    def solver_seconds(self) -> float:
        """Time spent exploring, encoding and solving (excludes
        parse/compile): the part of a verification the verdict cache
        saves on a hit."""
        seconds = 0.0
        if self.determinism is not None:
            stats = self.determinism.stats
            seconds += (
                stats.explore_seconds
                + stats.encode_seconds
                + stats.solve_seconds
            )
        if self.idempotence is not None:
            seconds += self.idempotence.total_seconds
        return seconds


class Rehearsal:
    """The configuration verification tool (paper title!).

    Parameters mirror the paper's CLI: the context
    (:meth:`ModelContext.for_platform`) carries the platform's facts and
    package database; options control the §4 scaling techniques.
    """

    def __init__(
        self,
        context: Optional[ModelContext] = None,
        options: Optional[DeterminismOptions] = None,
        node_name: str = "default",
    ):
        self.context = context or ModelContext()
        self.options = options or DeterminismOptions()
        self.node_name = node_name

    # -- pipeline stages ---------------------------------------------------

    def frontend(self, source: str) -> Frontend:
        """Manifest source → (catalog, resource graph, FS programs)."""
        return build_frontend(
            parse_manifest(source), self.context, self.node_name
        )

    def compile(self, source: str) -> Tuple[DiGraph, Dict[str, Expr]]:
        """Manifest source → (resource graph, FS programs)."""
        return self.with_prelude(self.frontend(source))

    def with_prelude(
        self, front: Frontend
    ) -> Tuple[DiGraph, Dict[str, Expr]]:
        """The (graph, programs) pair the checks run on.  Under snapshot
        package semantics the prelude goes into copies, so ``front``
        keeps the graph as the manifest declares it."""
        graph, programs = front.graph, front.programs
        if self.context.package_semantics == "snapshot":
            graph, programs = graph.copy(), dict(programs)
            self._inject_snapshot_prelude(graph, programs)
        return graph, programs

    def _inject_snapshot_prelude(self, graph, programs) -> None:
        """Snapshot package semantics: add a prelude resource that
        mirrors installed-state into the snapshot area at the start of
        every run, with an edge to every package resource (see
        :mod:`repro.resources.snapshot`)."""
        from repro.resources.snapshot import (
            SNAPSHOT_EPILOGUE_NODE,
            SNAPSHOT_PRELUDE_NODE,
            packages_in_snapshot_scope,
            snapshot_epilogue,
            snapshot_prelude,
        )

        package_nodes = [
            node
            for node, data in graph.nodes(data=True)
            if data["entry"].resource.rtype == "package"
        ]
        if not package_nodes:
            return
        names = [
            graph.nodes[node]["entry"].resource.get_str("name")
            or graph.nodes[node]["entry"].resource.title
            for node in package_nodes
        ]
        scope = packages_in_snapshot_scope(self.context.package_db, names)
        graph.add_node(SNAPSHOT_PRELUDE_NODE)
        graph.add_node(SNAPSHOT_EPILOGUE_NODE)
        programs[SNAPSHOT_PRELUDE_NODE] = snapshot_prelude(scope)
        programs[SNAPSHOT_EPILOGUE_NODE] = snapshot_epilogue(scope)
        for node in package_nodes:
            graph.add_edge(SNAPSHOT_PRELUDE_NODE, node)
            graph.add_edge(node, SNAPSHOT_EPILOGUE_NODE)

    def check_determinism(self, source: str) -> DeterminismResult:
        front = self.frontend(source)
        graph, programs = self.with_prelude(front)
        return check_determinism(
            graph, programs, self.options, footprints=front.footprints
        )

    def check_idempotence(self, source: str) -> IdempotenceResult:
        """Idempotence assumes determinism has been established
        (§5: these checks are unsound on non-deterministic manifests)."""
        graph, programs = self.compile(source)
        return check_idempotence(graph, programs)

    def check_invariant(
        self, source: str, prop: FinalStateProperty, extra_paths=()
    ) -> InvariantResult:
        from repro.analysis.invariants import check_invariant

        graph, programs = self.compile(source)
        order = topological_sort(graph)
        e = seq(*[programs[n] for n in order])
        return check_invariant(e, prop, extra_paths=tuple(extra_paths))

    # -- the full verification --------------------------------------------------

    def verify(
        self,
        source: str,
        name: str = "<manifest>",
        compiled: Optional[Frontend] = None,
    ) -> VerificationReport:
        """Determinism first, then idempotence (gated, per §5).

        ``compiled`` — an already-built :meth:`frontend` for
        ``source``; callers that need it themselves (batch rows lint
        it, the differential fuzzer runs its oracle on it) pass it in
        so the frontend runs once per manifest.
        """
        report = VerificationReport(manifest_name=name)
        start = time.perf_counter()
        try:
            front = compiled if compiled is not None else self.frontend(source)
            graph, programs = self.with_prelude(front)
        except ReproError as exc:
            report.error = str(exc)
            report.total_seconds = time.perf_counter() - start
            return report
        report.resource_count = graph.number_of_nodes()
        for node, data in graph.nodes(data=True):
            entry = data.get("entry")
            if entry is not None:
                report.declared_at[str(node)] = (
                    entry.resource.line,
                    entry.resource.col,
                )
        # One store handle for the whole verify: the determinism and
        # idempotence checks used to resolve it independently per
        # call; a resident daemon additionally pins this same handle
        # for its process lifetime (see repro.service.daemon), so
        # every request lands on the hot SQLite connection.
        store = None
        if self.options.incremental:
            # Lazy import: service.incremental is only needed on the
            # opt-in incremental path, and importing it eagerly would
            # wire the analysis layer to the service layer for every
            # caller.
            from repro.service.incremental import open_store

            store = open_store(
                getattr(self.options, "incremental_dir", None)
            )
        try:
            det = check_determinism(
                graph,
                programs,
                self.options,
                incremental_store=store,
                footprints=front.footprints,
            )
            report.determinism = det
            report.deterministic = det.deterministic
            if det.deterministic:
                if self.options.incremental:
                    from repro.service.incremental import (
                        check_idempotence_incremental,
                    )

                    idem = check_idempotence_incremental(
                        graph,
                        programs,
                        options=self.options,
                        stats=det.stats,
                        store=store,
                    )
                else:
                    idem = check_idempotence(graph, programs)
                report.idempotence = idem
                report.idempotent = idem.idempotent
        except ReproError as exc:
            # Notably AnalysisBudgetExceeded: a blown budget is a
            # reportable verdict ("could not decide within limits"),
            # not a crash.
            report.error = str(exc)
            report.error_transient = bool(
                getattr(exc, "wall_clock", False)
            )
        report.total_seconds = time.perf_counter() - start
        return report
