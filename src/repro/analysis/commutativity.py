"""Syntactic commutativity checking (paper §4.3, Fig. 9).

A conventional read/write-set check cannot prove that two packages
commute, because both idempotently create shared directories like
``/usr/bin`` (false sharing).  Following the paper, the analysis
assigns each path one of four abstract values:

* ``⊥`` — untouched,
* ``R`` — read,
* ``D`` — *idempotently ensured to be a directory* via the guarded
  ``if (¬dir?(p)) mkdir(p)`` idiom, in tree order,
* ``W`` — written.

Two expressions commute when their footprints do not conflict
(Lemma 4).  Two additions over the paper's statement of the lemma:
``W``/``W`` overlaps conflict (clearly required — the printed lemma
omits it), and ``rm``/``emptydir?`` record a *children read* on the
directory, which conflicts with writes to any descendant (the
emptiness of a directory observes children that never appear in the
program text, mirroring the Fig. 8 fresh-child completion).

:func:`conflict_matrix` refines the pairwise check with the resource
graph: a path that an ancestor of either resource already left as a
directory, and that no resource in the graph writes, cannot conflict
(see its docstring for the soundness argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Set,
)

from repro.digraph import DiGraph, ancestors
from repro.fs import syntax as fx
from repro.fs.paths import Path


class Access(Enum):
    """Abstract access levels; BOT ⊏ READ, DIRED ⊏ WRITE."""

    BOT = 0
    READ = 1
    DIRED = 2
    WRITE = 3


def _lub(a: Access, b: Access) -> Access:
    if a == b:
        return a
    if a == Access.BOT:
        return b
    if b == Access.BOT:
        return a
    # READ ⊔ DIRED and anything with WRITE collapse to WRITE.
    return Access.WRITE


@dataclass(frozen=True)
class Footprint:
    """The per-path access summary of one expression."""

    accesses: "FrozenSet[tuple[Path, Access]]"
    children_reads: FrozenSet[Path]
    #: Paths the expression leaves as a directory on every successful
    #: run (guarded mkdirs, joined over ``Seq`` and ``If``).
    ensured: FrozenSet[Path] = frozenset()

    # Cached: the pairwise checks read these for every pair.
    @cached_property
    def reads(self) -> FrozenSet[Path]:
        return frozenset(p for p, a in self.accesses if a == Access.READ)

    @cached_property
    def writes(self) -> FrozenSet[Path]:
        return frozenset(p for p, a in self.accesses if a == Access.WRITE)

    @cached_property
    def dir_ensures(self) -> FrozenSet[Path]:
        return frozenset(p for p, a in self.accesses if a == Access.DIRED)

    def touched(self) -> FrozenSet[Path]:
        return frozenset(p for p, _ in self.accesses)


class _Analyzer:
    def __init__(self) -> None:
        self.state: Dict[Path, Access] = {}
        self.children_reads: set[Path] = set()

    # -- helpers ------------------------------------------------------------

    def _get(self, p: Path) -> Access:
        return self.state.get(p, Access.BOT)

    def read(self, p: Path) -> None:
        if p.is_root:
            return
        current = self._get(p)
        if current in (Access.DIRED, Access.WRITE):
            # Reading state this expression itself established observes
            # internal, not external, state — keep the stronger value
            # (this is what lets a package's creats read the shared
            # directories its own guarded mkdirs ensured).
            return
        self.state[p] = Access.READ

    def write(self, p: Path) -> None:
        self.state[p] = Access.WRITE

    def read_children(self, p: Path) -> None:
        self.children_reads.add(p)

    def _parent_is_dired(self, p: Path) -> bool:
        parent = p.parent()
        return parent.is_root or self._get(parent) == Access.DIRED

    # -- traversal -----------------------------------------------------------

    def pred(self, a: fx.Pred) -> None:
        if isinstance(a, (fx.IsNone, fx.IsFile, fx.IsDir, fx.IsFileWith)):
            self.read(a.path)
        elif isinstance(a, fx.IsEmptyDir):
            self.read(a.path)
            self.read_children(a.path)
        elif isinstance(a, fx.PNot):
            self.pred(a.inner)
        elif isinstance(a, (fx.PAnd, fx.POr)):
            self.pred(a.left)
            self.pred(a.right)

    def expr(self, e: fx.Expr) -> Optional[FrozenSet[Path]]:
        """Record ``e``'s accesses; return the paths it leaves as a
        directory on every successful run (``None``: ``e`` never
        succeeds, so every path vacuously is one)."""
        if isinstance(e, fx.Err):
            return None
        if isinstance(e, fx.Id):
            return frozenset()
        guarded = _match_guarded_mkdir(e)
        if guarded is not None:
            # Fig. 9b: D only when the current value is ⊑ D and the
            # parent is already ensured (tree order); otherwise a write.
            current = self._get(guarded)
            if current in (Access.BOT, Access.DIRED) and self._parent_is_dired(
                guarded
            ):
                self.state[guarded] = Access.DIRED
            else:
                self.read(guarded.parent())
                self.write(guarded)
            return frozenset((guarded,))
        if isinstance(e, fx.Mkdir):
            self.read(e.path.parent())
            self.write(e.path)
        elif isinstance(e, fx.Creat):
            self.read(e.path.parent())
            self.write(e.path)
        elif isinstance(e, fx.Rm):
            self.read_children(e.path)
            self.write(e.path)
        elif isinstance(e, fx.Cp):
            self.read(e.src)
            self.read(e.dst.parent())
            self.write(e.dst)
        elif isinstance(e, fx.Seq):
            first = self.expr(e.first)
            second = self.expr(e.second)
            if first is None or second is None:
                return None
            return first | second
        elif isinstance(e, fx.If):
            self.pred(e.pred)
            before = dict(self.state)
            then_ensured = self.expr(e.then_branch)
            then_state = self.state
            self.state = before
            else_ensured = self.expr(e.else_branch)
            merged = dict(self.state)
            for p, a in then_state.items():
                merged[p] = _lub(merged.get(p, Access.BOT), a)
            self.state = merged
            if then_ensured is None:
                return else_ensured
            if else_ensured is None:
                return then_ensured
            return then_ensured & else_ensured
        else:
            raise TypeError(f"unknown expression: {e!r}")
        return frozenset()


def _match_guarded_mkdir(e: fx.Expr) -> Optional[Path]:
    """Recognize ``if (¬dir?(p)) mkdir(p) else id`` and the equivalent
    ``if (dir?(p)) id else mkdir(p)``."""
    if not isinstance(e, fx.If):
        return None
    pred, then_b, else_b = e.pred, e.then_branch, e.else_branch
    if (
        isinstance(pred, fx.PNot)
        and isinstance(pred.inner, fx.IsDir)
        and isinstance(then_b, fx.Mkdir)
        and then_b.path == pred.inner.path
        and isinstance(else_b, fx.Id)
    ):
        return then_b.path
    if (
        isinstance(pred, fx.IsDir)
        and isinstance(then_b, fx.Id)
        and isinstance(else_b, fx.Mkdir)
        and else_b.path == pred.path
    ):
        return else_b.path
    return None


def footprint(e: fx.Expr) -> Footprint:
    """Compute the abstract footprint of an expression."""
    analyzer = _Analyzer()
    ensured = analyzer.expr(e)
    return Footprint(
        accesses=frozenset(
            (p, a) for p, a in analyzer.state.items() if a != Access.BOT
        ),
        children_reads=frozenset(analyzer.children_reads),
        # A program that never succeeds ensures every path vacuously;
        # nothing relies on that, so keep the finite, empty answer.
        ensured=ensured or frozenset(),
    )


def footprints_of(
    nodes: Iterable[Hashable],
    programs: Mapping[Hashable, fx.Expr],
    known: Mapping[Hashable, Footprint],
) -> Dict[Hashable, Footprint]:
    """Each node's footprint: ``known``'s, else computed from its
    program — for callers handed the frontend's footprints."""
    return {
        n: known[n] if n in known else footprint(programs[n]) for n in nodes
    }


def footprints_commute(f1: Footprint, f2: Footprint) -> bool:
    """Lemma 4 (extended): syntactic sufficient condition for
    ``e1; e2 ≡ e2; e1``."""
    return not conflicting_paths(f1, f2)


def conflicting_paths(f1: Footprint, f2: Footprint) -> Set[Path]:
    """The paths on which Lemma 4 fails for the pair (empty exactly
    when the footprints commute)."""
    paths: Set[Path] = set()
    for a, b in ((f1, f2), (f2, f1)):
        b_touch_rw = b.reads | b.writes
        paths |= a.writes & (b_touch_rw | b.dir_ensures)
        paths |= a.dir_ensures & b_touch_rw
        # Children reads: emptiness of d observes every descendant.
        grows = b.writes | b.dir_ensures
        for d in a.children_reads:
            paths.update(p for p in grows if d.is_ancestor_of(p))
    return paths


def exprs_commute(e1: fx.Expr, e2: fx.Expr) -> bool:
    """Convenience wrapper computing footprints on the fly."""
    return footprints_commute(footprint(e1), footprint(e2))


def conflict_matrix(
    graph: DiGraph,
    footprints: "Mapping[Hashable, Footprint]",
) -> "Dict[Hashable, Dict[Hashable, Set[Path]]]":
    """All-pairs conflicting paths of the graph's resources, refined
    by the graph, computed once.  ``matrix[a][b]`` is empty exactly
    when ``a`` and ``b`` commute wherever the order reductions swap
    them; it is symmetric and the diagonal is empty.

    A path ``p`` is *settled* for the pair when an ancestor of ``a``
    or of ``b`` ensures it (:attr:`Footprint.ensured`) and no resource
    in the graph writes it; conflicts on settled paths are dropped.
    (Every conflict is reported on the path whose access causes it,
    so this equals dropping the accesses first.)  This is sound
    because the Fig. 9a reduction and lint's race confirmation only
    ever swap two *adjacent* unordered resources, and in a
    linearization every ancestor of both has run by then.
    So ``p`` is a directory at the swap (or the state has already
    errored, and both orders error), and it stays one: only a write
    changes it.  Each resource's access to ``p`` then reads the same
    value in both orders or is a no-op ensure.  Children reads are
    kept, since the children of a settled directory can still change.
    """
    keys = list(footprints)
    written: Set[Path] = set()
    for fp in footprints.values():
        written |= fp.writes
    settled: Dict[Hashable, FrozenSet[Path]] = {}
    for n in keys:
        ensured: Set[Path] = set()
        for c in ancestors(graph, n):
            ensured |= footprints[c].ensured
        settled[n] = frozenset(ensured - written)
    matrix: Dict[Hashable, Dict[Hashable, Set[Path]]] = {
        k: {k: set()} for k in keys
    }
    for i, a in enumerate(keys):
        fa = footprints[a]
        for b in keys[i + 1 :]:
            paths = conflicting_paths(fa, footprints[b])
            paths -= settled[a] | settled[b]
            matrix[a][b] = paths
            matrix[b][a] = paths
    return matrix
