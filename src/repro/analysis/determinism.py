"""The determinacy analysis (paper §4, Theorem 1).

``check_determinism`` decides whether a resource graph maps every
initial filesystem to at most one outcome:

1. optionally *eliminate* resources that cannot affect the verdict
   (§4.4) and *prune* paths private to single resources (§4.4);
2. symbolically execute the graph (Fig. 7's Φ_G) over the
   *reachable-state DAG* rather than the order tree: the worklist is
   keyed on ``(frozenset(remaining), state_fingerprint)``, so when two
   interleavings converge on the same symbolic state the subtree is
   explored once (states are hash-consed term DAGs — fingerprint
   equality is uid comparison, see
   :meth:`repro.smt.state.SymbolicState.fingerprint`).  The
   commutativity reduction (Fig. 9a) still applies first: when a
   fringe resource commutes with every other remaining resource that
   could be scheduled before or after it, explore only that resource
   next instead of branching.  When that leaves a single choice at
   every step (checked first, on the remaining-sets alone), there is
   one order and one final state, and the check returns before any
   symbolic state is built;
3. race each final state against the first one as exploration lands
   it (*eager first-divergence racing*): state equality is transitive
   at a fixed initial state, so comparing every final against final 0
   is equivalent to comparing all pairs.  Finals are already
   deduplicated by fingerprint (one witness order kept per state), so
   the solver only ever sees genuinely different finals;
4. each comparison is one assumption-guarded check on a shared SAT
   solver.  The first SAT stops exploration ⇒ non-deterministic, with
   a decoded witness initial filesystem and two diverging orders.
   Replaying both orders on the witness localizes the race
   (:mod:`repro.analysis.localize`) with no further SAT call.

The memoization changes the Fig. 13 asymptotics: n unordered,
mutually-conflicting writers induce n! orders but only O(n·2^n)
distinct (remaining, state) pairs, so exploration collapses from the
factorial order tree to the subset/state lattice.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.commutativity import (
    Footprint,
    conflict_matrix,
    footprints_of,
)
from repro.analysis.elimination import eliminate_resources
from repro.digraph import DiGraph, descendants, topological_sort
from repro.errors import AnalysisBudgetExceeded
from repro.fs import FileSystem
from repro.fs import syntax as fx
from repro.fs.semantics import ConcreteRunner

# The symbolic back end (term bank, SMT encoding, SAT) and the pruning
# passes load where they first run: on most manifests elimination
# leaves at most one resource and the check returns before either.
if TYPE_CHECKING:
    from repro.analysis.localize import RaceReport
    from repro.logic.terms import TermBank
    from repro.smt.state import SymbolicState

NodeId = Hashable


def _incremental_default() -> bool:
    """``REHEARSAL_INCREMENTAL=1`` forces the incremental store on for
    every analysis in the process (the CI matrix cell that re-runs the
    tier-1 suite with persistence enabled)."""
    return os.environ.get("REHEARSAL_INCREMENTAL", "") not in ("", "0")


@dataclass
class DeterminismOptions:
    """Switches for the three scaling techniques of §4 — the Fig. 11
    experiments toggle these."""

    use_commutativity: bool = True
    use_pruning: bool = True
    use_elimination: bool = True
    use_simplification: bool = True
    #: Key the exploration worklist on (remaining, state fingerprint)
    #: so converging interleavings share one subtree.  Off, the
    #: exploration degenerates to the order tree — the naive
    #: order-enumerating oracle the property tests compare against.
    use_memoization: bool = True
    max_branches: int = 5000
    timeout_seconds: Optional[float] = None
    #: Persist whole determinism and idempotence results across
    #: processes in the :mod:`repro.service.incremental` store, so
    #: re-verifying a catalog that is unchanged after pruning skips
    #: exploration and SAT.  Verdicts are byte-identical with the
    #: store hot, cold, or deleted mid-run; this flag is therefore
    #: *excluded* from the verdict-cache key.  Defaults from
    #: ``REHEARSAL_INCREMENTAL``.
    incremental: bool = field(default_factory=_incremental_default)
    #: Directory holding ``incremental.sqlite`` (default: the
    #: :func:`repro.service.cachedir.default_cache_dir`).
    incremental_dir: Optional[str] = None


def verdict_options(options: DeterminismOptions) -> Dict[str, object]:
    """The options a verdict depends on, as a plain dict: every field
    but ``incremental`` and ``incremental_dir``.  The store is a cache
    of intermediate results, not an input, so incremental and
    from-scratch runs share verdict-cache and store keys."""
    d = asdict(options)
    del d["incremental"], d["incremental_dir"]
    return d


@dataclass
class DeterminismStats:
    """Instrumentation reported by every check (feeds Fig. 11)."""

    resources_total: int = 0
    resources_after_elimination: int = 0
    paths_before_pruning: int = 0
    paths_after_pruning: int = 0
    #: Stateful paths written by two or more resources (from
    #: :attr:`repro.analysis.pruning.PruneReport.writers_by_path`) —
    #: the contention candidates race localization can name.
    contended_paths: int = 0
    modeled_paths: int = 0
    branches_explored: int = 0
    #: Transitions that landed on an already-visited
    #: (remaining, state-fingerprint) key: each one is a whole subtree
    #: of the order tree that was *not* re-explored.
    memo_hits: int = 0
    #: Distinct exploration states reached by two or more
    #: interleavings — the convergence points of the reachable-state
    #: DAG (≤ ``memo_hits``; a state arrived at k times contributes
    #: one merge and k-1 memo hits).
    states_merged: int = 0
    #: Final states surviving fingerprint deduplication — what the SAT
    #: loop actually compares (the order tree has one final per
    #: explored order; the DAG keeps one witness order per state).  On
    #: a non-deterministic graph, only the finals reached up to the
    #: first divergence.
    distinct_finals: int = 0
    sat_vars: int = 0
    sat_clauses: int = 0
    #: Assumption-based checks issued on the shared solver: one per
    #: candidate order pair until the first diverging pair.  Race
    #: localization replays the witness and adds none.
    sat_queries: int = 0
    #: CDCL conflicts/decisions summed over those checks — the
    #: ``--profile`` view.
    sat_conflicts: int = 0
    sat_decisions: int = 0
    explore_seconds: float = 0.0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    elimination_fallback: bool = False
    #: Always False: the lint prefilter that set it is gone, and
    #: elimination and exploration prove the graphs it proved.  Kept so
    #: rows and their readers keep the field, like ``cnf_cache_hits``.
    prefilter_proved: bool = False
    #: Incremental-store reuse (0 unless ``options.incremental``):
    #: whole results served — a recorded determinism result for the
    #: post-pruning work set, and a recorded full-catalog idempotence
    #: verdict.  Like the timing fields, these describe the *run*, not
    #: the manifest: incremental and from-scratch rows agree on
    #: everything else.
    subtree_reuse_hits: int = 0
    #: Always 0: no store section holds CNF encodings any more.  Kept
    #: so rows (schema version 5) and their readers keep the field.
    cnf_cache_hits: int = 0
    #: Always 0: no store section holds commutativity verdicts any
    #: more.  Kept for the same reason as ``cnf_cache_hits``.
    commute_cache_hits: int = 0


@dataclass
class DeterminismResult:
    deterministic: bool
    stats: DeterminismStats
    witness_fs: Optional[FileSystem] = None
    witness_orders: Optional[Tuple[List[NodeId], List[NodeId]]] = None
    witness_outcomes: Optional[Tuple[object, object]] = None
    #: For non-deterministic manifests: the racing resource pair and
    #: contended path, localized by replaying the two diverging orders
    #: on the witness (see :mod:`repro.analysis.localize`).
    race: Optional[RaceReport] = None

    def __bool__(self) -> bool:
        return self.deterministic


class _Explorer:
    """Symbolic execution of Φ_G over the reachable-state DAG.

    An iterative, worklist-driven traversal replacing the recursive
    order-tree walk.  Each worklist entry is
    ``(remaining, state, order)``; expansion applies every schedulable
    resource (after the Fig. 9a commutativity reduction) and memoizes
    successors on ``(frozenset(remaining), state.fingerprint())``.
    When two interleavings converge on the same key, the second
    arrival is a :attr:`memo_hits` and its subtree is not re-explored
    — the n! order tree collapses to the distinct-state count.  Final
    states fall out of the same memo (the key with ``remaining`` empty),
    so :attr:`finals` is already deduplicated by fingerprint, holding
    one witness order per distinct final state for ``localize`` and
    ``--explain``.

    Per-branch costs are hoisted into ``__init__``: the full pairwise
    conflict matrix and every node's descendant and predecessor
    sets are computed once (previously ``footprints_commute`` and
    ``descendants`` ran on every ``_explore`` call, O(V·E) per
    branch).
    """

    def __init__(
        self,
        graph: DiGraph,
        programs: Dict[NodeId, fx.Expr],
        options: DeterminismOptions,
        deadline: Optional[float],
        prints: Mapping[NodeId, Footprint],
    ):
        self.graph = graph
        self.programs = programs
        self.options = options
        self.deadline = deadline
        nodes = list(graph.nodes)
        self.prints: Dict[NodeId, Footprint] = footprints_of(
            nodes, programs, prints
        )
        self.conflicts = conflict_matrix(graph, self.prints)
        self.descendants: Dict[NodeId, frozenset] = {
            n: frozenset(descendants(graph, n)) for n in nodes
        }
        self.predecessors: Dict[NodeId, frozenset] = {
            n: frozenset(graph.predecessors(n)) for n in nodes
        }
        self.sort_key: Dict[NodeId, str] = {n: str(n) for n in nodes}
        self.branches = 0
        self.memo_hits = 0
        self.states_merged = 0
        self.explore_seconds = 0.0
        self.finals: List[Tuple[SymbolicState, List[NodeId]]] = []

    def single_order(self) -> bool:
        """Replay :meth:`frontier` over the remaining-sets alone, with
        no symbolic state: True when no expansion offers a choice, so
        :meth:`walk` would reach exactly one final state.  Counts
        :attr:`branches` and checks the budget as :meth:`walk` does;
        on False the count is reset for :meth:`walk` to redo."""
        remaining = frozenset(self.graph.nodes)
        while remaining:
            self._check_budget()
            chosen = self.frontier(remaining)
            if len(chosen) > 1:
                self.branches = 0
                return False
            self.branches += 1
            remaining = remaining - {chosen[0]}
        return True

    def walk(self, bank: TermBank, init: SymbolicState):
        """Lazy exploration: a generator yielding each deduplicated
        final ``(state, order)`` in DFS order, as it is discovered
        (and appended to :attr:`finals`).  ``check_determinism`` races
        each final against the base order while exploration continues
        and stops consuming at the first divergence, which is why this
        is a generator and not a loop.  Time between yields accrues to
        :attr:`explore_seconds`, so the explore/solve split in the
        stats survives the interleaving.
        """
        from repro.smt.encoder import apply_expr

        use_memo = self.options.use_memoization
        #: (frozenset(remaining), fingerprint) -> arrival count.  The
        #: first arrival enqueues the state; later ones only bump the
        #: counters.
        arrivals: Dict[tuple, int] = {}
        stack: List[Tuple[frozenset, SymbolicState, tuple]] = [
            (frozenset(self.graph.nodes), init, ())
        ]
        tick = time.perf_counter()
        while stack:
            remaining, state, order = stack.pop()
            if not remaining:
                final = (state, list(order))
                self.finals.append(final)
                self.explore_seconds += time.perf_counter() - tick
                yield final
                tick = time.perf_counter()
                continue
            self._check_budget()
            chosen = self.frontier(remaining)
            pending = []
            for n in chosen:
                self.branches += 1
                next_state = apply_expr(bank, state, self.programs[n])
                next_remaining = remaining - {n}
                if use_memo:
                    key = (next_remaining, next_state.fingerprint())
                    count = arrivals.get(key, 0)
                    arrivals[key] = count + 1
                    if count:
                        self.memo_hits += 1
                        if count == 1:
                            self.states_merged += 1
                        continue
                pending.append(
                    (next_remaining, next_state, order + (n,))
                )
            # Reversed push keeps pop order equal to the old recursive
            # DFS's, so finals[0] is the same base order as before.
            stack.extend(reversed(pending))
        self.explore_seconds += time.perf_counter() - tick

    def frontier(self, remaining: frozenset) -> List[NodeId]:
        """The schedulable resources of ``remaining`` (no unsatisfied
        predecessor), in canonical sorted order, after the Fig. 9a
        commutativity reduction — the branching choices of one
        expansion."""
        fringe = sorted(
            (
                n
                for n in remaining
                if not (self.predecessors[n] & remaining)
            ),
            key=self.sort_key.__getitem__,
        )
        assert fringe, "resource graph has a cycle"
        if self.options.use_commutativity:
            for n in fringe:
                if self._commutes_with_all(n, remaining):
                    return [n]
        return fringe

    def _commutes_with_all(self, n: NodeId, remaining: frozenset) -> bool:
        """True when n commutes with every other remaining resource
        that is not a descendant of n (descendants always run after n
        in every linearization, so they never need to swap past it)."""
        descendants = self.descendants[n]
        conflicts = self.conflicts[n]
        for m in remaining:
            if m == n or m in descendants:
                continue
            if conflicts[m]:
                return False
        return True

    def _check_budget(self) -> None:
        if self.branches > self.options.max_branches:
            raise AnalysisBudgetExceeded(
                f"exceeded {self.options.max_branches} exploration "
                f"branches with {self.memo_hits} memo hits over "
                f"{self.states_merged} merged states and "
                f"{len(self.finals)} finals so far (the manifest has "
                "too many unordered, non-commuting resources — "
                "see Fig. 13)",
                branches=self.branches,
                memo_hits=self.memo_hits,
                states_merged=self.states_merged,
            )
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise AnalysisBudgetExceeded(
                "determinism check timed out",
                branches=self.branches,
                wall_clock=True,
                memo_hits=self.memo_hits,
                states_merged=self.states_merged,
            )


def check_determinism(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    options: Optional[DeterminismOptions] = None,
    incremental_store=None,
    footprints: Optional[Mapping[NodeId, Footprint]] = None,
) -> DeterminismResult:
    """Decide determinism of a resource graph (Theorem 1).

    ``graph`` edges point prerequisite → dependent; ``programs`` maps
    node ids to compiled FS programs.

    ``footprints`` — node → footprint of its program in ``programs``,
    as the frontend computed them; nodes it lacks (the snapshot
    prelude) are computed here.  Each program's footprint is then
    computed once per check: elimination, pruning, the elimination
    fallback and race localization share them.

    ``incremental_store`` — an already-open
    :class:`repro.service.incremental.IncrementalStore` handle to
    reuse on the incremental path, instead of resolving one per call:
    the pipeline opens a single handle per verify, and the daemon
    keeps one open for the life of the process so the store's SQLite
    page cache stays hot across requests.
    """
    options = options or DeterminismOptions()
    stats = DeterminismStats(resources_total=graph.number_of_nodes())
    start = time.perf_counter()
    deadline = (
        start + options.timeout_seconds
        if options.timeout_seconds is not None
        else None
    )

    prints = footprints_of(graph.nodes, programs, footprints or {})
    work_graph = graph
    work_programs = dict(programs)
    #: Footprints of ``work_programs``, kept in step with it.
    work_prints = dict(prints)

    if options.use_elimination:
        work_graph, elim = eliminate_resources(
            work_graph, work_programs, prints
        )
    stats.resources_after_elimination = work_graph.number_of_nodes()

    node_list = list(work_graph.nodes)
    exprs = [work_programs[n] for n in node_list]
    if options.use_pruning and node_list:
        from repro.analysis.pruning import prune_manifest

        pruned_exprs, prune_report = prune_manifest(
            exprs, [prints[n] for n in node_list]
        )
        stats.paths_before_pruning = prune_report.stateful_before
        stats.paths_after_pruning = prune_report.stateful_after
        stats.contended_paths = sum(
            1
            for writers in prune_report.writers_by_path.values()
            if len(writers) > 1
        )
        for n, e, fp in zip(node_list, pruned_exprs, prune_report.footprints):
            work_programs[n] = e
            work_prints[n] = fp
    else:
        writer_counts: Dict[object, int] = {}
        for n in node_list:
            fp = prints[n]
            for p in fp.writes | fp.dir_ensures:
                writer_counts[p] = writer_counts.get(p, 0) + 1
        stats.paths_before_pruning = len(writer_counts)
        stats.paths_after_pruning = len(writer_counts)
        stats.contended_paths = sum(
            1 for count in writer_counts.values() if count > 1
        )

    if options.use_simplification:
        from repro.fs.rewrite import simplify

        for n in list(work_graph.nodes):
            simplified = simplify(work_programs[n])
            if simplified is not work_programs[n]:
                work_programs[n] = simplified
                del work_prints[n]

    if work_graph.number_of_nodes() <= 1:
        stats.total_seconds = time.perf_counter() - start
        stats.modeled_paths = stats.paths_after_pruning
        stats.distinct_finals = 1  # the single (possibly empty) order
        return DeterminismResult(True, stats)

    from repro.smt.values import PathDomains

    domains = PathDomains.for_exprs(
        [work_programs[n] for n in work_graph.nodes]
    )
    stats.modeled_paths = len(domains)

    # Cross-run persistence of whole results: only for string node ids
    # (recorded orders and races round-trip through JSON).
    inc = None
    if options.incremental and all(isinstance(n, str) for n in graph.nodes):
        try:
            from repro.service.incremental import DetIncremental

            inc = DetIncremental.create(
                graph,
                programs,
                work_graph,
                work_programs,
                domains,
                options,
                store=incremental_store,
            )
        except Exception:
            inc = None  # unusable storage degrades to a cold run
    if inc is not None:
        served = inc.lookup_root()
        if served is not None:
            served.stats.subtree_reuse_hits += 1
            return served
    explorer = _Explorer(
        work_graph, work_programs, options, deadline, work_prints
    )
    explore_start = time.perf_counter()
    if explorer.single_order():
        # One schedulable resource at every step: a single order and a
        # single final state, so no symbolic state and no SAT query.
        stats.explore_seconds = time.perf_counter() - explore_start
        stats.branches_explored = explorer.branches
        stats.distinct_finals = 1
        stats.total_seconds = time.perf_counter() - start
        if inc is not None:
            inc.record_root(DeterminismResult(True, stats))
        return DeterminismResult(True, stats)

    from repro.logic.terms import TermBank
    from repro.smt.query import IncrementalQuery
    from repro.smt.state import (
        initial_constraints,
        initial_state,
        states_differ,
    )

    bank = TermBank()
    init = initial_state(bank, domains)

    # Eager first-divergence racing.  Each final races against the
    # canonical base order (the first final) the moment exploration
    # lands it, and the first divergence stops exploration — on
    # non-deterministic manifests most of the state space is never
    # walked.  All order-pair queries share one incrementally reused
    # solver: the initial-state constraints are asserted once, each
    # pair's state difference is guarded by a selector variable, and
    # every check retains the clauses (and learned clauses) of the
    # previous ones.
    query: Optional[IncrementalQuery] = None
    result = None
    walk = explorer.walk(bank, init)
    base = next(walk)
    for state_i, _order_i in walk:
        # walk() only re-checks the deadline at its next expansion;
        # finals already sitting on the DFS stack would each get a
        # full SAT query past the timeout without this check.
        if deadline is not None and time.perf_counter() > deadline:
            raise AnalysisBudgetExceeded(
                "determinism check timed out",
                branches=explorer.branches,
                wall_clock=True,
                memo_hits=explorer.memo_hits,
                states_merged=explorer.states_merged,
            )
        i = len(explorer.finals) - 1
        encode_start = time.perf_counter()
        differ = states_differ(bank, state_i, base[0], domains.paths)
        if differ is bank.FALSE:
            stats.encode_seconds += time.perf_counter() - encode_start
            continue  # symbolically identical final states
        if query is None:
            query = IncrementalQuery(bank)
            query.assert_term(initial_constraints(bank, domains))
        selector = query.add_selector(f"pair${i}", differ)
        stats.encode_seconds += time.perf_counter() - encode_start
        result = query.check(assumptions=[selector])
        stats.sat_queries += 1
        if result.sat:
            break  # the last final diverges from the base
        if not result.core_lits:
            # The initial-state constraints alone are unsatisfiable:
            # no pair can ever diverge, skip the remaining queries.
            break

    stats.explore_seconds = explorer.explore_seconds
    stats.branches_explored = explorer.branches
    stats.memo_hits = explorer.memo_hits
    stats.states_merged = explorer.states_merged
    finals = explorer.finals
    stats.distinct_finals = len(finals)

    if query is not None:
        stats.sat_vars = query.cnf.num_vars
        stats.sat_clauses = len(query.cnf.clauses)
        stats.solve_seconds = query.solve_seconds
        stats.sat_conflicts = query.conflicts
        stats.sat_decisions = query.decisions
    stats.total_seconds = time.perf_counter() - start

    if result is None or not result.sat:
        if inc is not None:
            inc.record_root(DeterminismResult(True, stats))
        return DeterminismResult(True, stats)

    from repro.analysis.localize import localize_race
    from repro.smt.model import decode_filesystem

    witness = decode_filesystem(domains, result.named_model)
    orders = _diverging_orders(
        witness, finals, {n: programs[n] for n in graph.nodes}, graph
    )
    if orders is None and options.use_elimination:
        # An eliminated resource masked the symbolic difference by
        # erroring on the witness state: the paper's "e1;e ≡ e2;e iff
        # e1 ≡ e2" step is incomplete for error-masking resources.
        # Re-check without elimination (sound and complete, slower).
        # dataclasses.replace carries every other option unchanged.
        fallback = replace(options, use_elimination=False)
        retry = check_determinism(graph, programs, fallback, footprints=prints)
        retry.stats.elimination_fallback = True
        retry.stats.total_seconds += stats.total_seconds
        return retry
    # Localize only once the verdict is final (the elimination
    # fallback above would discard this work and redo the analysis).
    # Without concrete orders (an encoding bug with elimination off)
    # the witness shows no divergence to replay, so the static ranking
    # decides.
    outcome_pair = None
    order_pair = None
    if orders is not None:
        order_pair = (orders[0], orders[1])
        outcome_pair = (orders[2], orders[3])
    race = localize_race(
        finals[0][1],
        finals[-1][1],
        work_graph,
        {n: programs[n] for n in graph.nodes},
        domains.paths,
        outcomes=outcome_pair,
        descendants=explorer.descendants,
        witness=witness if orders is not None else None,
        prints=prints,
    )
    nondet = DeterminismResult(
        False,
        stats,
        witness_fs=witness,
        witness_orders=order_pair,
        witness_outcomes=outcome_pair,
        race=race,
    )
    if inc is not None:
        inc.record_root(nondet)
    return nondet


def _diverging_orders(
    witness: FileSystem,
    finals: Sequence[Tuple[SymbolicState, List[NodeId]]],
    original_programs: Dict[NodeId, fx.Expr],
    graph: DiGraph,
):
    """Concretely re-run the explored orders (with the *original*,
    unpruned programs) on the witness to exhibit two diverging ones.

    Eliminated resources are absent from the explored orders; they
    commute with everything after them, so appending them (in an order
    respecting their mutual dependencies) keeps the divergence visible
    while running full programs.
    """
    explored_nodes = set(finals[0][1])
    tail = [
        n
        for n in topological_sort(graph)
        if n not in explored_nodes
    ]
    runner = ConcreteRunner(original_programs)
    outcomes = []
    for _, order in finals:
        full_order = list(order) + tail
        outcomes.append((full_order, runner.run(full_order, witness)))
    base_order, base_outcome = outcomes[0]
    for other_order, other_outcome in outcomes[1:]:
        if other_outcome != base_outcome:
            return base_order, other_order, base_outcome, other_outcome
    return None
