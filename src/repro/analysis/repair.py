"""Dependency repair synthesis (the paper's §9 "manifest repair").

Given a non-deterministic resource graph, search for a small set of
dependency edges whose addition makes it deterministic.  This inverts
the §6 workflow — instead of reporting the missing-dependency bug, it
proposes the fix the paper's authors wrote by hand for each benchmark.

The search is a bounded greedy/backtracking loop:

1. check determinism; done if it holds;
2. enumerate candidate pairs: unordered resources whose syntactic
   footprints (§4.3) conflict, preferring the pair that actually
   diverges in the reported witness orders;
3. try an edge in the heuristically better direction first (the
   resource that *establishes* state — directory ensurers, definitive
   writers — goes first), backtracking to the other direction;
4. recurse with a budget on added edges.

Every proposed repair is verified end-to-end by the determinacy
analysis before being returned, so unsound proposals are impossible —
at worst the search gives up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.analysis.commutativity import Footprint, footprint, footprints_commute
from repro.analysis.determinism import (
    DeterminismOptions,
    DeterminismResult,
    check_determinism,
)
from repro.digraph import DiGraph, has_path, topological_sort
from repro.errors import AnalysisBudgetExceeded
from repro.fs import syntax as fx

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


@dataclass
class RepairResult:
    success: bool
    added_edges: List[Edge] = field(default_factory=list)
    final: Optional[DeterminismResult] = None
    checks_performed: int = 0

    def __bool__(self) -> bool:
        return self.success


def synthesize_repair(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    options: Optional[DeterminismOptions] = None,
    max_edges: int = 8,
    max_checks: int = 64,
) -> RepairResult:
    """Search for edges that make the graph deterministic.

    Two passes: the first only accepts repairs that keep the manifest
    *succeeding from the empty machine* — determinism alone would also
    accept degenerate fixes that fail predictably (a config file
    ordered before its package is deterministic: it always errors).
    If no such repair exists the requirement is dropped.
    """
    options = options or DeterminismOptions()
    prints = {n: footprint(programs[n]) for n in graph.nodes}
    for require_success in (True, False):
        state = _SearchState(
            options, prints, programs, max_checks, require_success
        )
        edges = state.search(graph, budget=max_edges)
        if edges is None:
            continue
        edges = _minimize_edges(graph, programs, options, edges, state)
        repaired = graph.copy()
        repaired.add_edges_from(edges)
        final = check_determinism(repaired, programs, options)
        return RepairResult(
            final.deterministic,
            added_edges=edges,
            final=final,
            checks_performed=state.checks,
        )
    return RepairResult(False)


def _minimize_edges(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    options: DeterminismOptions,
    edges: List[Edge],
    state: "_SearchState",
) -> List[Edge]:
    """Greedy edge minimization: drop any edge whose removal keeps the
    repair valid (the witness-guided search can pick up incidental
    edges before finding the essential one)."""
    kept = list(edges)
    for edge in list(kept):
        if len(kept) == 1:
            break
        trial_edges = [e for e in kept if e != edge]
        trial = graph.copy()
        trial.add_edges_from(trial_edges)
        state.checks += 1
        try:
            result = check_determinism(trial, programs, options)
        except AnalysisBudgetExceeded:
            continue
        if result.deterministic and (
            not state.require_success or state._succeeds_from_empty(trial)
        ):
            kept = trial_edges
    return kept


class _SearchState:
    def __init__(self, options, prints, programs, max_checks, require_success):
        self.options = options
        self.prints: Dict[NodeId, Footprint] = prints
        self.programs = programs
        self.max_checks = max_checks
        self.require_success = require_success
        self.checks = 0
        self.seen: set[frozenset] = set()

    def search(
        self, graph: DiGraph, budget: int
    ) -> Optional[List[Edge]]:
        if self.checks >= self.max_checks:
            return None
        self.checks += 1
        try:
            result = check_determinism(graph, self.programs, self.options)
        except AnalysisBudgetExceeded:
            return None
        if result.deterministic:
            if self.require_success and not self._succeeds_from_empty(graph):
                return None
            return []
        if budget == 0:
            return None
        for a, b in self._candidates(graph, result):
            for src, dst in self._directions(a, b):
                if has_path(graph, dst, src):
                    continue  # would create a cycle
                key = frozenset(graph.edges) | {(src, dst)}
                marker = frozenset(key)
                if marker in self.seen:
                    continue
                self.seen.add(marker)
                trial = graph.copy()
                trial.add_edge(src, dst)
                rest = self.search(trial, budget - 1)
                if rest is not None:
                    return [(src, dst)] + rest
        return None

    def _candidates(
        self, graph: DiGraph, result: DeterminismResult
    ) -> List[Tuple[NodeId, NodeId]]:
        """Unordered conflicting pairs, witness-guided first."""
        pairs: List[Tuple[NodeId, NodeId]] = []
        ranked: set = set()
        if result.witness_orders is not None:
            order1, order2 = result.witness_orders
            for a, b in zip(order1, order2):
                if a == b:
                    continue
                pair = self._normalize(graph, a, b)
                if pair is not None and pair not in ranked:
                    ranked.add(pair)
                    pairs.append(pair)
                break  # first divergence point only
        nodes = sorted(graph.nodes, key=str)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                pair = self._normalize(graph, a, b)
                if pair is not None and pair not in ranked:
                    ranked.add(pair)
                    pairs.append(pair)
        return pairs

    def _normalize(
        self, graph: DiGraph, a: NodeId, b: NodeId
    ) -> Optional[Tuple[NodeId, NodeId]]:
        """Return the pair if unordered and conflicting, else None."""
        if a == b:
            return None
        if has_path(graph, a, b) or has_path(graph, b, a):
            return None
        if footprints_commute(self.prints[a], self.prints[b]):
            return None
        return (a, b) if str(a) <= str(b) else (b, a)

    def _succeeds_from_empty(self, graph: DiGraph) -> bool:
        """The provisioning sanity check: one (hence, by determinism,
        every) linearization succeeds on the empty machine."""
        from repro.fs import FileSystem
        from repro.fs.semantics import ERROR, eval_expr

        order = topological_sort(graph)
        program = fx.seq(*[self.programs[n] for n in order])
        return eval_expr(program, FileSystem.empty()) is not ERROR

    def _directions(
        self, a: NodeId, b: NodeId
    ) -> List[Tuple[NodeId, NodeId]]:
        """Heuristic direction: the state *provider* goes first.
        Establishing a directory tree (the D class) is a stronger
        signal than a mere write overlap — a package that D-ensures
        the directory a config file lives in almost certainly must
        precede it."""
        fa, fb = self.prints[a], self.prints[b]
        a_dirs = self._provides_for(fa, fb, dirs_only=True)
        b_dirs = self._provides_for(fb, fa, dirs_only=True)
        if a_dirs and not b_dirs:
            return [(a, b), (b, a)]
        if b_dirs and not a_dirs:
            return [(b, a), (a, b)]
        if self._provides_for(fa, fb):
            return [(a, b), (b, a)]
        if self._provides_for(fb, fa):
            return [(b, a), (a, b)]
        return [(a, b), (b, a)]

    @staticmethod
    def _provides_for(
        provider: Footprint, consumer: Footprint, dirs_only: bool = False
    ) -> bool:
        established = (
            provider.dir_ensures
            if dirs_only
            else provider.dir_ensures | provider.writes
        )
        needs = consumer.reads | consumer.writes
        for d in established:
            for p in needs:
                if d == p or d.is_ancestor_of(p):
                    return True
        return False
