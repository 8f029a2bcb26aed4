"""The concrete interleaving oracle: ground truth by brute force.

The symbolic pipeline decides determinism/idempotence by encoding the
reachable-state DAG into SAT.  This module answers the same questions
*concretely*, using only the reference semantics of the FS language
(:func:`repro.fs.semantics.eval_expr` — paper Fig. 5) and plain Python
data structures: enumerate every topological order of the resource
graph over a family of concrete initial filesystems and compare final
states by value.  No term banks, no fingerprints, no solver — the
point is that a bug in the symbolic stack cannot also blind the
oracle.

Scope and limits (also in ``docs/fuzzing.md``):

* catalogs with more than :data:`MAX_ORACLE_RESOURCES` resources are
  skipped (order enumeration is factorial; the exploration deduplicates
  identical *concrete* states — dict-equality of path maps, which is
  trivially sound — but stays bounded);
* determinism is judged over a *sampled* family of well-formed initial
  filesystems derived from the catalog's own footprint, so the oracle's
  "deterministic" is one-sided: it can refute the pipeline's
  "deterministic" verdict (a concrete divergence is undeniable) but
  never prove it.  The differential driver therefore only flags
  *disagreements the oracle can witness concretely*;
* racing pairs are ground-truthed by adjacent transposition: ``(a, b)``
  races on σ iff they are unordered in the graph and swapping them in
  an order where they run back-to-back changes the outcome on σ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.digraph import DiGraph, topological_sort
from repro.fs import syntax as fx
from repro.fs.filesystem import DIR, FileContent, FileSystem
from repro.fs.paths import Path
from repro.fs.semantics import ERROR, eval_expr

NodeId = Hashable

#: The oracle enumerates every topological order; beyond this many
#: resources it abstains instead of guessing.
MAX_ORACLE_RESOURCES = 7

#: Content a generated manifest never writes — stands in for "the path
#: already holds something else entirely" in sampled initial states.
FOREIGN_CONTENT = "~oracle-foreign~"


@dataclass
class RacingPair:
    """Ground truth for one racing resource pair on one initial state:
    swapping ``a`` and ``b`` back-to-back changes the outcome."""

    a: str
    b: str
    #: Paths whose final content differs between the two outcomes
    #: (empty when the divergence is purely an error-status change).
    paths: Tuple[str, ...] = ()
    ok_divergence: bool = False

    @property
    def key(self) -> Tuple[str, str]:
        return tuple(sorted((self.a, self.b)))


@dataclass
class OracleDivergence:
    """A concrete non-determinism witness."""

    initial: FileSystem
    order_a: List[NodeId]
    order_b: List[NodeId]
    outcome_a: object  # FileSystem or ERROR
    outcome_b: object


@dataclass
class OracleReport:
    """What the oracle established for one catalog."""

    skipped: bool = False
    skip_reason: Optional[str] = None
    #: False — a concrete divergence exists (decisive).  True — none
    #: found over the family (one-sided).  None — skipped.
    deterministic: Optional[bool] = None
    #: Same one-sidedness; None when non-deterministic or skipped.
    idempotent: Optional[bool] = None
    divergence: Optional[OracleDivergence] = None
    #: Non-idempotence witness: (initial, once, twice).
    idempotence_witness: Optional[tuple] = None
    racing: List[RacingPair] = field(default_factory=list)
    states_tried: int = 0
    evaluations: int = 0


class OracleBudgetExceeded(Exception):
    """Internal: concrete exploration blew the evaluation cap."""


def run_oracle(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    extra_states: Sequence[FileSystem] = (),
    max_states: int = 24,
    max_evaluations: int = 50_000,
    seed: int = 0,
) -> OracleReport:
    """Decide determinism/idempotence concretely; see module docstring.

    ``extra_states`` lets the caller force specific initial filesystems
    into the family — the differential driver passes the pipeline's
    SAT witness so a claimed divergence is always replayed.
    """
    report = OracleReport()
    nodes = list(graph.nodes)
    if len(nodes) > MAX_ORACLE_RESOURCES:
        report.skipped = True
        report.skip_reason = (
            f"{len(nodes)} resources exceed the oracle cap of "
            f"{MAX_ORACLE_RESOURCES}"
        )
        return report

    states = list(extra_states) + initial_state_family(
        programs.values(), max_states=max_states, seed=seed
    )
    # Deduplicate while preserving order (extra states first).
    seen: Set[FileSystem] = set()
    family: List[FileSystem] = []
    for fs in states:
        if fs not in seen:
            seen.add(fs)
            family.append(fs)

    budget = _Budget(max_evaluations)
    try:
        for initial in family:
            report.states_tried += 1
            finals = _explore(graph, programs, initial, budget)
            if len(finals) > 1:
                (out_a, order_a), (out_b, order_b) = _pick_diverging(
                    finals
                )
                report.deterministic = False
                report.divergence = OracleDivergence(
                    initial=initial,
                    order_a=order_a,
                    order_b=order_b,
                    outcome_a=out_a,
                    outcome_b=out_b,
                )
                break
        else:
            report.deterministic = True
    except OracleBudgetExceeded:
        # No divergence was found before the budget ran out: the
        # verdict is genuinely unknown.
        report.skipped = True
        report.skip_reason = (
            f"exceeded {max_evaluations} concrete evaluations"
        )
        report.evaluations = budget.spent
        return report

    if report.deterministic is False:
        # The divergence is decisive regardless of what the follow-up
        # work can afford: racing-pair attribution runs under its own
        # budget and degrades to "unattributed", never to a skip.
        try:
            report.racing = racing_pairs(
                graph,
                programs,
                report.divergence.initial,
                _Budget(max_evaluations),
            )
        except OracleBudgetExceeded:
            report.racing = []
    else:
        try:
            report.idempotent = True
            for initial in family:
                verdict = _idempotent_on(graph, programs, initial, budget)
                if verdict is not None:
                    report.idempotent = False
                    report.idempotence_witness = verdict
                    break
        except OracleBudgetExceeded:
            # Determinism stands; only the idempotence question ran
            # out of budget.
            report.idempotent = None
    report.evaluations = budget.spent
    return report


def racing_pairs(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    initial: FileSystem,
    budget: Optional["_Budget"] = None,
) -> List[RacingPair]:
    """Every unordered pair ``(a, b)`` that concretely races from
    ``initial``: at some reachable intermediate state where both are
    schedulable, ``a;b`` and ``b;a`` produce different states.

    "Reachable intermediate state" walks the same deduplicated
    concrete-state DAG as the determinism check, so a pair that only
    races after some other resource has run (e.g. by creating the
    directory both then fight over) is still found.
    """
    budget = budget or _Budget(50_000)
    predecessors = {n: frozenset(graph.predecessors(n)) for n in graph}
    found: Dict[Tuple[str, str], RacingPair] = {}
    root = frozenset(graph.nodes)
    seen: Set[Tuple[frozenset, FileSystem]] = {(root, initial)}
    stack: List[Tuple[frozenset, FileSystem]] = [(root, initial)]
    while stack:
        remaining, state, = stack.pop()
        fringe = sorted(
            (n for n in remaining if not (predecessors[n] & remaining)),
            key=str,
        )
        # One evaluation per fringe resource per state, reused for
        # every pair comparison and for the expansion below.
        after = {}
        for n in fringe:
            budget.charge()
            after[n] = eval_expr(programs[n], state)
        for i, a in enumerate(fringe):
            for b in fringe[i + 1 :]:
                key = (str(a), str(b))
                if key in found:
                    continue
                budget.charge()
                out_ab = (
                    ERROR
                    if after[a] is ERROR
                    else eval_expr(programs[b], after[a])
                )
                out_ba = (
                    ERROR
                    if after[b] is ERROR
                    else eval_expr(programs[a], after[b])
                )
                if out_ab != out_ba:
                    found[key] = RacingPair(
                        a=str(a),
                        b=str(b),
                        paths=_outcome_diff(out_ab, out_ba),
                        ok_divergence=(out_ab is ERROR)
                        != (out_ba is ERROR),
                    )
            if after[a] is not ERROR:
                nxt = (remaining - {a}, after[a])
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return sorted(found.values(), key=lambda r: (r.a, r.b))


# -- concrete exploration -----------------------------------------------------


class _Budget:
    __slots__ = ("spent", "limit")

    def __init__(self, limit: int):
        self.spent = 0
        self.limit = limit

    def charge(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise OracleBudgetExceeded()


def _explore(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    initial: FileSystem,
    budget: _Budget,
) -> Dict[object, List[NodeId]]:
    """All final outcomes reachable by topological orders from
    ``initial``, each with one witness order.

    The walk deduplicates on ``(remaining, concrete state)`` — plain
    value equality of path→content maps, which cannot merge genuinely
    different states, so the *set* of reachable finals is exact even
    though only one witness order per final survives.  The error state
    is absorbing (``seq`` short-circuits), so it finalizes immediately.
    """
    predecessors = {n: frozenset(graph.predecessors(n)) for n in graph}
    topo = topological_sort(graph)
    finals: Dict[object, List[NodeId]] = {}
    root = frozenset(graph.nodes)
    seen: Set[Tuple[frozenset, FileSystem]] = set()
    stack: List[Tuple[frozenset, FileSystem, Tuple[NodeId, ...]]] = [
        (root, initial, ())
    ]
    while stack:
        remaining, state, order = stack.pop()
        if not remaining:
            finals.setdefault(state, list(order))
            continue
        fringe = sorted(
            (n for n in remaining if not (predecessors[n] & remaining)),
            key=str,
        )
        for n in fringe:
            budget.charge()
            nxt = eval_expr(programs[n], state)
            next_remaining = remaining - {n}
            next_order = order + (n,)
            if nxt is ERROR:
                # Absorbing: every completion of this order errors —
                # complete the witness with any valid linearization.
                finals.setdefault(
                    ERROR,
                    list(next_order)
                    + [m for m in topo if m in next_remaining],
                )
                continue
            key = (next_remaining, nxt)
            if key in seen:
                continue
            seen.add(key)
            stack.append((next_remaining, nxt, next_order))
    return finals


def _run_order(
    programs: Dict[NodeId, fx.Expr],
    order: Sequence[NodeId],
    initial: FileSystem,
    budget: _Budget,
) -> object:
    state: object = initial
    for n in order:
        budget.charge()
        state = eval_expr(programs[n], state)
        if state is ERROR:
            return ERROR
    return state


def _idempotent_on(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    initial: FileSystem,
    budget: _Budget,
) -> Optional[tuple]:
    """None when idempotent on ``initial``; else (initial, once, twice).

    Mirrors the pipeline's ``e ≡ e;e`` check at one state: an erroring
    first run is trivially idempotent (``seq`` short-circuits)."""
    order = topological_sort(graph)
    once = _run_order(programs, order, initial, budget)
    if once is ERROR:
        return None
    twice = _run_order(programs, order, once, budget)
    if twice != once:
        return (initial, once, twice)
    return None


def _pick_diverging(finals: Dict[object, List[NodeId]]):
    """Two entries with different outcomes (any two: all entries are
    pairwise different by construction)."""
    items = [(state, order) for state, order in finals.items()]
    return items[0], items[1]


def _outcome_diff(out_a: object, out_b: object) -> Tuple[str, ...]:
    if out_a is ERROR or out_b is ERROR:
        return ()
    assert isinstance(out_a, FileSystem) and isinstance(out_b, FileSystem)
    paths = set(out_a.paths()) | set(out_b.paths())
    return tuple(
        sorted(
            str(p)
            for p in paths
            if out_a.lookup(p) != out_b.lookup(p)
        )
    )


# -- the initial-state family -------------------------------------------------


def footprint_of(programs) -> Tuple[List[Path], Dict[Path, List[str]]]:
    """All paths an expression set touches plus the file contents it
    mentions per path — collected by a self-contained syntax walk
    (deliberately not :class:`repro.smt.values.PathDomains`: the oracle
    shares no code with the symbolic stack it cross-examines)."""
    paths: Set[Path] = set()
    contents: Dict[Path, Set[str]] = {}

    def note(path: Path, content: Optional[str] = None) -> None:
        paths.add(path)
        if content is not None:
            contents.setdefault(path, set()).add(content)

    def walk_pred(pred: fx.Pred) -> None:
        if isinstance(pred, fx.IsFileWith):
            note(pred.path, pred.content)
        elif isinstance(
            pred, (fx.IsNone, fx.IsFile, fx.IsDir, fx.IsEmptyDir)
        ):
            note(pred.path)
        elif isinstance(pred, (fx.PAnd, fx.POr)):
            walk_pred(pred.left)
            walk_pred(pred.right)
        elif isinstance(pred, fx.PNot):
            walk_pred(pred.inner)

    def walk(expr: fx.Expr) -> None:
        if isinstance(expr, fx.Mkdir):
            note(expr.path)
        elif isinstance(expr, fx.Creat):
            note(expr.path, expr.content)
        elif isinstance(expr, fx.Rm):
            note(expr.path)
        elif isinstance(expr, fx.Cp):
            note(expr.src)
            note(expr.dst)
        elif isinstance(expr, fx.Seq):
            walk(expr.first)
            walk(expr.second)
        elif isinstance(expr, fx.If):
            walk_pred(expr.pred)
            walk(expr.then_branch)
            walk(expr.else_branch)

    for program in programs:
        walk(program)
    return (
        sorted(paths),
        {p: sorted(cs) for p, cs in contents.items()},
    )


def initial_state_family(
    programs,
    max_states: int = 24,
    seed: int = 0,
) -> List[FileSystem]:
    """A deterministic family of well-formed initial filesystems biased
    toward the catalog's own footprint:

    1. the empty filesystem (nothing installed);
    2. the *scaffold* — every strict ancestor of a touched path exists
       as a directory, the touched paths themselves absent (parents
       ready, work not yet done);
    3. the *converged* state — scaffold plus every touched path holding
       the first content the catalog mentions for it;
    4. *knockouts* — the scaffold with one ancestor directory (and its
       subtree) removed, one state per ancestor: the states that
       expose parent-directory races ("the key file errors unless the
       user resource created the home directory first") reliably
       instead of sample-luckily;
    5. random samples: each touched path independently absent, a
       directory, or a file with either a mentioned or a foreign
       content, then patched up to be well-formed (ancestors forced to
       directories).
    """
    paths, contents = footprint_of(programs)
    if not paths:
        return [FileSystem.empty()]
    rng = random.Random(seed)

    # Each path's strict ancestors (root excluded), nearest first,
    # walked once here rather than per entry of every sampled state.
    above: Dict[Path, List[Path]] = {}
    ancestors: Set[Path] = set()
    for p in paths:
        above[p] = [anc for anc in p.ancestors() if not anc.is_root]
        ancestors.update(above[p])
    for anc in ancestors:
        if anc not in above:
            above[anc] = [a for a in anc.ancestors() if not a.is_root]

    def well_formed(entries: Dict[Path, object]) -> FileSystem:
        fixed = dict(entries)
        for p in entries:
            for anc in above[p]:
                fixed[anc] = DIR
        return FileSystem(fixed)

    family: List[FileSystem] = [FileSystem.empty()]
    scaffold = {p: DIR for p in ancestors}
    family.append(FileSystem(dict(scaffold)))

    converged = dict(scaffold)
    for p in paths:
        if p in converged:
            continue
        known = contents.get(p)
        if known:
            converged[p] = FileContent(known[0])
    family.append(well_formed(converged))

    for knocked in sorted(ancestors):
        if len(family) >= max_states - 3:  # keep room for samples
            break
        family.append(
            FileSystem(
                {
                    p: DIR
                    for p in scaffold
                    if p != knocked and not knocked.is_ancestor_of(p)
                }
            )
        )

    while len(family) < max_states:
        entries: Dict[Path, object] = {}
        for p in paths:
            roll = rng.random()
            if roll < 0.45:
                continue  # absent
            if roll < 0.6:
                entries[p] = DIR
            else:
                pool = contents.get(p, []) + [FOREIGN_CONTENT]
                entries[p] = FileContent(rng.choice(pool))
        family.append(well_formed(entries))
    return family
