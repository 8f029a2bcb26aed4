"""Unsat-core fault localization for non-deterministic manifests.

A raw SAT verdict ("the manifest is non-deterministic, here is a
witness filesystem") leaves the user to reconstruct *which* resource
interaction actually races — the paper's users did this by hand (§6).
This module automates it with the assumption interface of the
incremental solver:

1. Assert the initial-state constraints **and** the state difference of
   the diverging pair of execution orders (known satisfiable — that is
   the non-determinism witness).
2. For every modeled path ``p``, register a guarded *equality*
   assumption ``eq$p`` ("the two orders agree on ``p``"), plus one for
   the error status.
3. Check with **all** equality assumptions enabled.  The conjunction is
   unsatisfiable by construction (the orders do diverge), and the final
   conflict yields an unsat core: a subset of the equalities that
   cannot hold together with the divergence.
4. Shrink the core by iterated re-solving (each pass re-checks with
   only the previous core assumed; the incremental solver reuses all
   learned clauses, so this is nearly free), then map the surviving
   ``eq$p`` assumptions back to filesystem paths and to the pair of
   unordered resources whose footprints contend on them.

The result names the racing resource pair and the contended path —
"File[/etc/ntp.conf] and Package[ntp] race on /etc/ntp.conf" — which
``rehearsal verify --explain`` and the batch-service JSON rows surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.commutativity import Footprint, footprint
from repro.digraph import DiGraph, has_path
from repro.errors import SolverError
from repro.fs import FileSystem, syntax as fx
from repro.fs.paths import Path
from repro.fs.semantics import ERROR, eval_expr
from repro.logic.terms import TermBank
from repro.smt.query import IncrementalQuery
from repro.smt.state import SymbolicState
from repro.smt.values import PathDomains

NodeId = Hashable

#: Cores at or below this size are minimized by deletion (one re-solve
#: per member); larger cores only get the cheap iterated shrinking.
DELETION_MINIMIZE_LIMIT = 8

#: Concrete-evaluation budget for validating a candidate racing pair
#: on the witness filesystem (see :func:`_concretely_racing`).
VALIDATION_EVAL_LIMIT = 4000


@dataclass
class RaceReport:
    """Where the non-determinism comes from."""

    #: The two resources whose relative order changes the outcome.
    resource_a: NodeId
    resource_b: NodeId
    #: The contended path both of them touch (one of ``core_paths``),
    #: None when the divergence is purely an error-status change with
    #: no single contended path identified.
    path: Optional[Path]
    #: Every path named by the minimized unsat core.
    core_paths: List[Path] = field(default_factory=list)
    #: True when the orders disagree on whether the run errors.
    ok_divergence: bool = False
    #: Assumption-query statistics (each shrink pass is one check on
    #: the shared solver).
    checks: int = 0

    def describe(self) -> str:
        on = (
            f"race on {self.path}"
            if self.path is not None
            else "diverge on error status"
        )
        return f"{self.resource_a} and {self.resource_b} {on}"


def localize_race(
    bank: TermBank,
    domains: PathDomains,
    base: SymbolicState,
    other: SymbolicState,
    base_order: Sequence[NodeId],
    other_order: Sequence[NodeId],
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    query: IncrementalQuery,
    pair_selector: int,
    deadline: Optional[float] = None,
    descendants: Optional[Mapping[NodeId, frozenset]] = None,
    witness: Optional[FileSystem] = None,
) -> Optional[RaceReport]:
    """Map a diverging pair of symbolic final states to the racing
    resource pair and contended path; see the module docstring.

    ``query`` is the determinacy check's shared incremental solver and
    ``pair_selector`` the selector of the diverging pair's difference
    term, so localization rides on everything already encoded and
    learned.  Localization respects the analysis budget: once
    ``deadline`` (a ``time.perf_counter()`` instant) passes, core
    minimization stops with the best core found so far.  Returns None
    when localization cannot name a pair (e.g. single-resource
    divergence after elimination) or when the backend gives up before
    the first unsat core exists (an external solver's wall-clock
    timeout raises :class:`SolverError`).

    ``descendants`` — optional node → descendant-set mapping of
    ``graph`` (the explorer precomputes it); when provided, the
    pair-ranking pass answers "are a and b ordered?" with two set
    lookups instead of a ``has_path`` traversal per candidate
    pair.

    ``witness`` — the decoded non-determinism witness filesystem.
    When given, candidate pairs are *validated concretely*: the best
    candidate whose adjacent swap actually changes the outcome at some
    state reachable from the witness wins (see :func:`_concretely_racing`)
    — the static footprint ranking alone can name a pair that merely
    shares an idempotently-ensured directory while the true race runs
    through a parent directory one resource creates for the other.
    """
    checks_before = query.checks
    selectors: Dict[int, Optional[Path]] = {}
    assumptions: List[int] = [pair_selector]
    ok_eq = bank.iff(base.ok, other.ok)
    s_ok = query.add_selector("eq$ok", ok_eq)
    selectors[s_ok] = None
    assumptions.append(s_ok)
    for path in domains.paths:
        v1 = base.value(path)
        v2 = other.value(path)
        if v1 is v2:
            continue  # identical symbolic value: cannot be in any core
        s = query.add_selector(f"eq${path}", v1.equals(bank, v2))
        selectors[s] = path
        assumptions.append(s)

    try:
        result = query.check(assumptions=assumptions)
    except SolverError:
        return None  # the backend gave up (an external solver's
        # timeout): localization is best-effort diagnostics, never a crash
    if result.sat:
        # The equalities are jointly consistent with the difference —
        # only possible if the "difference" was over paths outside the
        # domain; nothing to localize.
        return None
    core = _minimize_core(
        query,
        result.core_lits,
        keep=pair_selector,
        deadline=deadline,
    )

    core_paths = sorted(
        {
            selectors[s]
            for s in core
            if selectors.get(s) is not None
        },
        key=str,
    )
    ok_divergence = s_ok in core
    pair = _pick_pair(
        core_paths,
        base_order,
        other_order,
        graph,
        programs,
        descendants=descendants,
        witness=witness,
    )
    if pair is None:
        return None
    resource_a, resource_b, path = pair
    return RaceReport(
        resource_a=resource_a,
        resource_b=resource_b,
        path=path,
        core_paths=list(core_paths),
        ok_divergence=ok_divergence,
        checks=query.checks - checks_before,
    )


def _minimize_core(
    query: IncrementalQuery,
    core: List[int],
    keep: int,
    deadline: Optional[float] = None,
) -> List[int]:
    """Shrink an unsat core on the shared solver.

    First iterate "re-solve with the core as the only assumptions"
    until it stops shrinking (final-conflict analysis often tightens),
    then, for small cores, try dropping each member except ``keep``
    (deletion-based minimization).  Every check reuses the solver's
    learned clauses, so each pass is nearly free.  A passed
    ``deadline`` or a backend that gives up (:class:`SolverError`)
    ends minimization early with the best (still valid) core found so
    far.
    """

    def out_of_budget() -> bool:
        return deadline is not None and time.perf_counter() > deadline

    if keep not in core:
        core = [keep] + core
    try:
        while True:
            if out_of_budget():
                return core
            result = query.check(assumptions=core)
            if result.sat or not result.core_lits:
                return core  # defensive: keep the last known core
            new_core = result.core_lits
            if keep not in new_core:
                new_core = [keep] + new_core
            if len(new_core) >= len(core):
                core = new_core
                break
            core = new_core
        if len(core) > DELETION_MINIMIZE_LIMIT:
            return core
        i = 0
        while i < len(core):
            if core[i] == keep:
                i += 1
                continue
            if out_of_budget():
                return core
            candidate = core[:i] + core[i + 1 :]
            result = query.check(assumptions=candidate)
            if result.sat:
                i += 1  # member is essential
            else:
                core = result.core_lits or candidate
                if keep not in core:
                    core = [keep] + core
                i = 0  # core may have been reordered; rescan
    except SolverError:
        pass  # the backend gave up mid-minimization
    return core


def _pick_pair(
    core_paths: Sequence[Path],
    base_order: Sequence[NodeId],
    other_order: Sequence[NodeId],
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    descendants: Optional[Mapping[NodeId, frozenset]] = None,
    witness: Optional[FileSystem] = None,
) -> Optional[Tuple[NodeId, NodeId, Optional[Path]]]:
    """The racing pair: two resources that swap relative order between
    the two diverging linearizations, are unordered in the dependency
    graph, and have conflicting footprints — preferring pairs that
    contend on a path from the unsat core, concretely validated on the
    witness when one is available."""
    position = {n: i for i, n in enumerate(base_order)}
    other_position = {n: i for i, n in enumerate(other_order)}
    prints: Dict[NodeId, Footprint] = {
        n: footprint(programs[n]) for n in position if n in programs
    }
    core_set = set(core_paths)

    def ordered(a: NodeId, b: NodeId) -> bool:
        if descendants is not None:
            return b in descendants[a] or a in descendants[b]
        return has_path(graph, a, b) or has_path(graph, b, a)

    swapped: List[Tuple[NodeId, NodeId]] = []
    nodes = [n for n in base_order if n in other_position]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if (position[a] < position[b]) != (
                other_position[a] < other_position[b]
            ):
                if ordered(a, b):
                    continue  # ordered by dependencies: cannot race
                swapped.append(tuple(sorted((a, b), key=str)))

    candidates: List[Tuple[tuple, NodeId, NodeId, Optional[Path]]] = []
    for a, b in swapped:
        fa = prints.get(a)
        fb = prints.get(b)
        if fa is None or fb is None:
            continue
        effects_a = fa.writes | fa.dir_ensures
        effects_b = fb.writes | fb.dir_ensures
        shared = effects_a & fb.touched() | effects_b & fa.touched()
        # Parent-directory conflicts: one resource creates the
        # directory the other writes into.  Invisible to the shared-
        # path intersection (the child path is in neither footprint of
        # the parent's creator), yet a classic race: run the child
        # writer first and it errors on the missing parent.
        parent_conflicts = {
            p.parent()
            for p in effects_a
            if p.parent() in effects_b
        } | {
            p.parent()
            for p in effects_b
            if p.parent() in effects_a
        }
        real_writes = fa.writes | fb.writes
        for p in shared | parent_conflicts:
            # Prefer paths the unsat core names, then genuine writes
            # over idempotent directory creation, then parent-conflict
            # evidence, then the most specific (deepest) path.
            score = (
                1 if p in core_set else 0,
                1 if p in real_writes else 0,
                1 if p in parent_conflicts else 0,
                len(str(p)),
            )
            candidates.append((score, a, b, p))
    candidates.sort(key=lambda c: c[0], reverse=True)

    if witness is not None and swapped:
        candidate_pairs = {(a, b) for _, a, b, _ in candidates}
        # Validate every swapped pair, not only the footprint-scored
        # candidates: when the true race is invisible to the footprint
        # heuristics (neither a shared path nor a parent conflict),
        # the concrete walk can still confirm it.
        racing = _concretely_racing(
            graph,
            programs,
            witness,
            set(swapped),
            VALIDATION_EVAL_LIMIT,
        )
        if racing is not None:
            for _, a, b, p in candidates:
                if (a, b) in racing:
                    return a, b, p
            for a, b in swapped:
                if (a, b) in racing and (a, b) not in candidate_pairs:
                    return a, b, (
                        sorted(core_set, key=str)[0] if core_set else None
                    )
        # Budget exhausted (None) or nothing confirmed: trust the
        # static ranking below rather than return no pair at all.
    if candidates:
        _, a, b, p = candidates[0]
        return a, b, p
    if swapped:
        a, b = swapped[0]
        return a, b, (sorted(core_set, key=str)[0] if core_set else None)
    return None


def _concretely_racing(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    witness: FileSystem,
    pairs: set,
    eval_limit: int,
) -> Optional[set]:
    """Which candidate ``pairs`` concretely race from ``witness``: at
    some reachable state where both members are schedulable, ``a;b``
    and ``b;a`` produce different outcomes.

    One walk of the reachable concrete-state DAG (deduplicated on
    ``(remaining, state)`` by value — exact, no fingerprints) checks
    every candidate pair at every visited state, with each fringe
    resource evaluated once per state and reused for both the pair
    comparisons and the expansion.  Returns the racing subset, or None
    when ``eval_limit`` runs out first (verdict unknown — the caller
    falls back to its static ranking).
    """
    predecessors = {n: frozenset(graph.predecessors(n)) for n in graph}
    budget = [eval_limit]

    def evaluate(node: NodeId, state: FileSystem):
        budget[0] -= 1
        return eval_expr(programs[node], state)

    racing: set = set()
    root = frozenset(graph.nodes)
    seen = {(root, witness)}
    stack = [(root, witness)]
    while stack:
        if budget[0] <= 0:
            return None
        remaining, state = stack.pop()
        fringe = [
            n for n in remaining if not (predecessors[n] & remaining)
        ]
        after = {n: evaluate(n, state) for n in fringe}
        schedulable = set(fringe)
        for a, b in pairs - racing:
            if a not in schedulable or b not in schedulable:
                continue
            out_ab = (
                ERROR
                if after[a] is ERROR
                else evaluate(b, after[a])
            )
            out_ba = (
                ERROR
                if after[b] is ERROR
                else evaluate(a, after[b])
            )
            if out_ab != out_ba:
                racing.add((a, b))
        if racing == pairs:
            return racing  # every candidate settled
        for n in fringe:
            if after[n] is ERROR:
                continue
            key = (remaining - {n}, after[n])
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return racing
