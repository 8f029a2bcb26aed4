"""The lint engine: staged analysis, rule registry, orchestration.

``lint_source`` pushes one manifest through the verification
pipeline's own frontend (:func:`repro.core.pipeline.build_frontend`:
parse, evaluate, graph construction, resource compilation), or takes
the one a verifying caller already built, but *stops short of the SAT
stack*: every rule is either purely syntactic, footprint-based (§4.3
machinery), or confirmed by a bounded number of concrete evaluations
of the reference semantics (Fig. 5).  A lint run issues **zero SAT
queries** by construction.

Stages degrade gracefully: a parse error yields exactly one REH001
diagnostic; an evaluation error one REH002; dangling references and
cycles stop the graph-dependent rules but never mask each other.

Rules live in :mod:`repro.analysis.lint.rules` and register themselves
with :func:`register_rule` plus one of the two checker decorators:

* ``@catalog_checker`` — runs once the catalog exists (before graph
  construction, so it still fires when the graph cannot be built);
* ``@graph_checker`` — runs with the compiled resource graph and FS
  programs (footprints, races, filesystem hygiene).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.commutativity import Footprint, footprint
from repro.analysis.lint.diagnostics import (
    Diagnostic,
    LintReport,
    Related,
    Severity,
)
from repro.core.pipeline import Frontend, build_frontend
from repro.digraph import DiGraph
from repro.errors import (
    DependencyCycleError,
    PuppetEvalError,
    PuppetSyntaxError,
    ResourceModelError,
)
from repro.fs import syntax as fx
from repro.fs.paths import Path
from repro.puppet.catalog import Catalog
from repro.puppet.parser import parse_manifest
from repro.resources.compiler import ModelContext


# -- rule registry -------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """Stable metadata for one lint rule (the SARIF rule table)."""

    id: str  # "REH005" — stable forever, never renumbered
    name: str  # "definite-race"
    severity: Severity
    summary: str  # one line, shown in ``--format text`` headers
    description: str = ""  # full help text (SARIF fullDescription)


RULES: Dict[str, Rule] = {}

CheckerFn = Callable[["LintContext"], Iterable[Diagnostic]]
CATALOG_CHECKERS: List[CheckerFn] = []
GRAPH_CHECKERS: List[CheckerFn] = []


def register_rule(rule: Rule) -> Rule:
    if rule.id in RULES:
        raise ValueError(f"duplicate lint rule id {rule.id}")
    RULES[rule.id] = rule
    return rule


def catalog_checker(fn: CheckerFn) -> CheckerFn:
    CATALOG_CHECKERS.append(fn)
    return fn


def graph_checker(fn: CheckerFn) -> CheckerFn:
    GRAPH_CHECKERS.append(fn)
    return fn


# -- options and context -------------------------------------------------------


@dataclass(frozen=True)
class LintOptions:
    """Knobs of one lint run."""

    #: Confirm race candidates by concretely evaluating two complete
    #: topological orders (the self-validation that makes REH005
    #: definite).  Off, every candidate is a REH006 warning.
    confirm_races: bool = True
    #: Protected subtrees for the REH010 write audit (off when empty).
    protected: Tuple[Path, ...] = ()
    #: Rule ids to suppress entirely.
    disabled: Tuple[str, ...] = ()

    def enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disabled


@dataclass
class LintContext:
    """Everything a checker may consult.  Graph checkers see ``graph``
    and ``programs``; catalog checkers must not assume either."""

    name: str
    options: LintOptions
    report: LintReport
    catalog: Optional[Catalog] = None
    graph: Optional[DiGraph] = None
    #: node -> compiled FS program (only successfully compiled ones).
    programs: Dict[object, fx.Expr] = field(default_factory=dict)
    #: node -> compile-error message for resources without a program.
    failed: Dict[object, str] = field(default_factory=dict)
    #: node -> footprint of its program: the frontend's, when lint
    #: runs on one, else computed on first use.
    _footprints: Optional[Dict[object, Footprint]] = None

    @property
    def footprints(self) -> Dict[object, Footprint]:
        if self._footprints is None:
            self._footprints = {
                n: footprint(e) for n, e in self.programs.items()
            }
        return self._footprints

    def span_of(self, node: object) -> Tuple[int, int]:
        """(line, col) of the resource behind a graph node."""
        if self.graph is not None and node in self.graph.nodes:
            entry = self.graph.nodes[node].get("entry")
            if entry is not None:
                return entry.resource.line, entry.resource.col
        return 0, 0

    def diag(
        self,
        rule_id: str,
        message: str,
        line: int = 0,
        col: int = 0,
        resource: Optional[str] = None,
        related: Tuple[Related, ...] = (),
        paths: Tuple[str, ...] = (),
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Build a diagnostic for a registered rule.  ``severity``
        overrides the rule default — only downward (a rule may demote
        a finding it gathered concrete evidence against, never
        escalate past its registered level)."""
        rule = RULES[rule_id]
        if severity is not None and severity > rule.severity:
            raise ValueError(
                f"{rule_id}: cannot escalate above {rule.severity}"
            )
        return Diagnostic(
            rule_id=rule.id,
            rule_name=rule.name,
            severity=severity if severity is not None else rule.severity,
            message=message,
            file=self.name,
            line=line,
            col=col,
            resource=resource,
            related=related,
            paths=paths,
        )

    def emit(self, diagnostic: Diagnostic) -> None:
        if self.options.enabled(diagnostic.rule_id):
            self.report.add(diagnostic)


# -- entry points --------------------------------------------------------------


def lint_source(
    source: str,
    name: str = "<manifest>",
    options: Optional[LintOptions] = None,
    context: Optional[ModelContext] = None,
    node_name: str = "default",
    frontend: Optional[Frontend] = None,
) -> LintReport:
    """Lint one manifest source; see the module docstring for staging.

    ``frontend`` — the pipeline's :class:`~repro.core.pipeline.Frontend`
    for ``source``, built under the same context and node name
    by a caller that also verifies the manifest.  Lint then runs only
    its catalog and graph checkers on it instead of rebuilding it.
    """
    import repro.analysis.lint.rules  # noqa: F401  (registers rules)

    options = options or LintOptions()
    report = LintReport(name=name)
    start = time.perf_counter()
    ctx = LintContext(name=name, options=options, report=report)
    if frontend is None:
        frontend = _staged_frontend(
            ctx, source, context or ModelContext(), node_name
        )
    else:
        _catalog_stage(ctx, frontend.catalog)
    if frontend is not None:
        ctx.graph = frontend.graph
        ctx.programs.update(frontend.programs)
        ctx._footprints = frontend.footprints
        _graph_stage(ctx)
    report.stats.seconds = time.perf_counter() - start
    return report


def _staged_frontend(
    ctx: LintContext,
    source: str,
    context: ModelContext,
    node_name: str,
) -> Optional[Frontend]:
    """The pipeline's frontend, turning each stage's failure into its
    diagnostic.  Returns ``None`` when no resource graph exists;
    resources that cannot be modeled are reported (REH003) and left
    out of the programs."""
    try:
        manifest = parse_manifest(source)
    except PuppetSyntaxError as exc:
        ctx.emit(
            ctx.diag(
                "REH001",
                str(exc),
                line=getattr(exc, "line", 0),
                col=getattr(exc, "column", 0),
            )
        )
        return None

    def model_error(node, resource, exc: ResourceModelError) -> None:
        ctx.failed[node] = str(exc)
        ctx.emit(
            ctx.diag(
                "REH003",
                f"{node}: {exc}",
                line=resource.line,
                col=resource.col,
                resource=str(node),
            )
        )

    try:
        return build_frontend(
            manifest,
            context,
            node_name,
            on_catalog=lambda catalog: _catalog_stage(ctx, catalog),
            on_model_error=model_error,
        )
    except PuppetEvalError as exc:
        if ctx.catalog is None:
            ctx.emit(ctx.diag("REH002", str(exc)))
        elif isinstance(exc, DependencyCycleError):
            members = [str(n) for n in exc.cycle]
            line, col = _cycle_span(ctx.catalog, members)
            ctx.emit(
                ctx.diag(
                    "REH008",
                    "dependency cycle: "
                    + " -> ".join(members + members[:1]),
                    line=line,
                    col=col,
                    resource=members[0] if members else None,
                )
            )
        elif not any(
            d.rule_id == "REH007" for d in ctx.report.diagnostics
        ):
            # A dangling reference the catalog stage already reported
            # with its span is not reported again.
            ctx.emit(ctx.diag("REH002", str(exc)))
        return None


def _catalog_stage(ctx: LintContext, catalog: Catalog) -> None:
    """Catalog rules (duplicate claims, dangling references); they run
    before graph construction, so they fire when it fails too."""
    ctx.catalog = catalog
    ctx.report.stats.resources = len(catalog.primitive_resources())
    for checker in CATALOG_CHECKERS:
        for diagnostic in checker(ctx):
            ctx.emit(diagnostic)


def _graph_stage(ctx: LintContext) -> None:
    """Graph rules (races, filesystem hygiene, idempotence)."""
    for checker in GRAPH_CHECKERS:
        for diagnostic in checker(ctx):
            ctx.emit(diagnostic)


def lint_graph(
    graph: DiGraph,
    programs: Dict[object, fx.Expr],
    name: str = "<graph>",
    options: Optional[LintOptions] = None,
) -> LintReport:
    """Run only the graph-stage rules on an already-compiled pair —
    the entry point the differential fuzz harness uses so lint sees
    the exact graph the pipeline and the oracle see."""
    import repro.analysis.lint.rules  # noqa: F401

    options = options or LintOptions()
    report = LintReport(name=name)
    start = time.perf_counter()
    ctx = LintContext(
        name=name,
        options=options,
        report=report,
        graph=graph,
        programs=dict(programs),
    )
    report.stats.resources = graph.number_of_nodes()
    _graph_stage(ctx)
    report.stats.seconds = time.perf_counter() - start
    return report


def _cycle_span(catalog: Catalog, members: List[str]) -> Tuple[int, int]:
    """Best-effort span for a cycle report: the first member with one."""
    by_ref = {
        str(entry.ref): entry for entry in catalog.resources.values()
    }
    for member in members:
        entry = by_ref.get(member)
        if entry is not None and entry.resource.line:
            return entry.resource.line, entry.resource.col
    return 0, 0
