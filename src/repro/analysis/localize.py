"""Race localization for non-deterministic manifests, by witness replay.

A raw SAT verdict ("the manifest is non-deterministic, here is a
witness filesystem") leaves the user to reconstruct *which* resource
interaction actually races — the paper's users did this by hand (§6).
By the time this module runs, the determinacy check already holds
everything needed: the decoded witness and the two concrete outcomes
of the diverging orders replayed on it (see
:func:`repro.analysis.determinism._diverging_orders`).  Localization
makes no further SAT call:

1. Compare the two outcomes.  When exactly one order errors, the
   orders disagree on the error status and no single path is
   implicated; otherwise the implicated paths are the modeled paths
   whose final contents differ.
2. Rank the unordered resource pairs that swap between the two orders
   by how their footprints contend, preferring the implicated paths
   (:func:`_pick_pair`).
3. Validate the ranking concretely: the best candidate whose adjacent
   swap changes the outcome at some state reachable from the witness
   wins (:func:`_concretely_racing`).

The result names the racing resource pair and the contended path —
"File[/etc/ntp.conf] and Package[ntp] race on /etc/ntp.conf" — which
``rehearsal verify --explain`` and the batch-service JSON rows surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.commutativity import Footprint, footprints_of
from repro.digraph import DiGraph
from repro.fs import FileSystem, syntax as fx
from repro.fs.paths import Path
from repro.fs.semantics import ERROR, ConcreteRunner, Result

NodeId = Hashable

#: Concrete-evaluation budget for validating a candidate racing pair
#: on the witness filesystem (see :func:`_concretely_racing`).
VALIDATION_EVAL_LIMIT = 4000


@dataclass
class RaceReport:
    """Where the non-determinism comes from."""

    #: The two resources whose relative order changes the outcome.
    resource_a: NodeId
    resource_b: NodeId
    #: The contended path both of them touch, None when the divergence
    #: is purely an error-status change with no single contended path
    #: identified.
    path: Optional[Path]
    #: The modeled paths on which the two orders' outcomes on the
    #: witness differ (empty on an error-status divergence).
    core_paths: List[Path] = field(default_factory=list)
    #: True when exactly one of the two orders errors on the witness.
    ok_divergence: bool = False

    def describe(self) -> str:
        on = (
            f"race on {self.path}"
            if self.path is not None
            else "diverge on error status"
        )
        return f"{self.resource_a} and {self.resource_b} {on}"


def localize_race(
    base_order: Sequence[NodeId],
    other_order: Sequence[NodeId],
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    modeled_paths: Sequence[Path],
    *,
    descendants: Mapping[NodeId, frozenset],
    prints: Mapping[NodeId, Footprint],
    outcomes: Optional[Tuple[Result, Result]] = None,
    witness: Optional[FileSystem] = None,
) -> Optional[RaceReport]:
    """Name the racing resource pair and contended path between two
    diverging explored orders; see the module docstring.

    ``descendants`` — the explorer's node → descendant set of ``graph``;
    ``prints`` — footprints of ``programs`` (missing ones are computed).

    ``outcomes`` — the two orders' concrete outcomes on ``witness``
    (a :class:`FileSystem` or ``ERROR`` each).  The modeled paths on
    which they differ rank the candidate pairs.  Without them (the
    witness shows no concrete divergence, so there is no ``witness``
    to validate on either) no path is preferred and the static
    footprint ranking decides.

    ``witness`` — the decoded non-determinism witness filesystem.
    When given, candidate pairs are *validated concretely*: the best
    candidate whose adjacent swap actually changes the outcome at some
    state reachable from the witness wins (see :func:`_concretely_racing`)
    — the static footprint ranking alone can name a pair that merely
    shares an idempotently-ensured directory while the true race runs
    through a parent directory one resource creates for the other.

    Returns None when no swapped, unordered pair exists (e.g. a
    single-resource divergence after elimination).
    """
    core_paths: List[Path] = []
    ok_divergence = False
    if outcomes is not None:
        base, other = outcomes
        ok_divergence = (base is ERROR) != (other is ERROR)
        if base is not ERROR and other is not ERROR:
            core_paths = sorted(
                (
                    p
                    for p in modeled_paths
                    if base.lookup(p) != other.lookup(p)
                ),
                key=str,
            )
    pair = _pick_pair(
        core_paths,
        base_order,
        other_order,
        graph,
        programs,
        descendants,
        prints,
        witness,
    )
    if pair is None:
        return None
    resource_a, resource_b, path = pair
    return RaceReport(
        resource_a=resource_a,
        resource_b=resource_b,
        path=path,
        core_paths=core_paths,
        ok_divergence=ok_divergence,
    )


def _pick_pair(
    core_paths: Sequence[Path],
    base_order: Sequence[NodeId],
    other_order: Sequence[NodeId],
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    descendants: Mapping[NodeId, frozenset],
    prints: Mapping[NodeId, Footprint],
    witness: Optional[FileSystem],
) -> Optional[Tuple[NodeId, NodeId, Optional[Path]]]:
    """The racing pair: two resources that swap relative order between
    the two diverging linearizations, are unordered in the dependency
    graph, and have conflicting footprints — preferring pairs that
    contend on one of ``core_paths``, concretely validated on the
    witness when one is available."""
    position = {n: i for i, n in enumerate(base_order)}
    other_position = {n: i for i, n in enumerate(other_order)}
    prints = footprints_of(
        [n for n in position if n in programs], programs, prints
    )
    core_set = set(core_paths)

    swapped: List[Tuple[NodeId, NodeId]] = []
    nodes = [n for n in base_order if n in other_position]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if (position[a] < position[b]) != (
                other_position[a] < other_position[b]
            ):
                if b in descendants[a] or a in descendants[b]:
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
            # Prefer the paths the outcomes differ on, then genuine writes
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
            swapped,
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
    pairs: Sequence[Tuple[NodeId, NodeId]],
    eval_limit: int,
) -> Optional[set]:
    """Which candidate ``pairs`` concretely race from ``witness``: at
    some reachable state where both members are schedulable, ``a;b``
    and ``b;a`` produce different outcomes.

    One walk of the reachable concrete-state DAG (deduplicated on
    ``(remaining, state)`` by value — exact, no fingerprints), its
    fringe in ``str`` order like :func:`repro.testing.oracle.racing_pairs`,
    checks every candidate pair at every visited state.  One
    :class:`ConcreteRunner` evaluates each resource once per state, for
    the pair swaps and the expansion alike.  Returns the racing subset,
    or None when more than ``eval_limit`` evaluations would be needed
    (verdict unknown — the caller falls back to its static ranking).
    """
    predecessors = {n: frozenset(graph.predecessors(n)) for n in graph}
    runner = ConcreteRunner(programs)
    racing: set = set()
    root = frozenset(graph.nodes)
    seen = {(root, witness)}
    stack = [(root, witness)]
    while stack:
        if runner.evaluations >= eval_limit:
            return None
        remaining, state = stack.pop()
        fringe = sorted(
            (n for n in remaining if not (predecessors[n] & remaining)),
            key=str,
        )
        for a, b in pairs:
            if (a, b) in racing or a not in fringe or b not in fringe:
                continue
            out_ab, out_ba = runner.swap(a, b, state)
            if out_ab != out_ba:
                racing.add((a, b))
        if len(racing) == len(pairs):
            return racing  # every candidate settled
        for n in fringe:
            after = runner.step(n, state)
            if after is ERROR:
                continue
            key = (remaining - {n}, after)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return racing
