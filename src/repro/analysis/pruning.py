"""Pruning definitive writes (paper §4.4, Fig. 10a).

``prune(p, e)`` removes every write to ``p`` from ``e``, replacing each
write by its precondition check and partially evaluating subsequent
reads of ``p`` against the value the removed write would have left.
The path then stays read-only throughout the program, which lets the
encoding use a single variable for it (its initial-state variable).

Knowledge about ``p`` is threaded per control-flow branch:

* ``_INITIAL`` — ``p`` still holds its initial value; reads stay as
  syntactic predicates (they read the read-only variable);
* a known value (``dir``/``dne``/``file(c)``) — reads fold to
  constants;
* ``_TAINTED`` — branches merged with different knowledge; a further
  read cannot be folded, so pruning *bails out* (returns None) rather
  than produce an unsound program.

The manifest-level pass (:func:`prune_manifest`) selects prunable paths
per the paper: each path definitively written by exactly one resource
and not observed or affected by any other, with the guard-privacy side
condition explained in :mod:`repro.analysis.definitive`.  It prunes
each resource's candidates in turn, each on the result of the previous
ones.  A candidate that bails leaves the program as it was, which
changes what every later candidate sees; most candidates that are
directories do bail (a guarded ``mkdir`` taints the directory before
its children are created).  So each candidate keeps its own walk, and
the walks skip every subtree that does not concern their path
(:class:`_Pruner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.commutativity import Footprint, footprint
from repro.analysis.definitive import (
    A_DIR,
    A_DNE,
    AFile,
    ADir,
    ADne,
    WriteProfile,
    analyze_definitive,
)
from repro.fs import syntax as fx
from repro.fs.domain import is_fresh_witness
from repro.fs.paths import Path


class _Initial:
    def __repr__(self) -> str:
        return "initial"


class _Tainted:
    def __repr__(self) -> str:
        return "tainted"


_INITIAL = _Initial()
_TAINTED = _Tainted()
Knowledge = Union[_Initial, _Tainted, ADir, ADne, AFile]


class _Bail(Exception):
    """Pruning cannot proceed soundly for this path."""


def prune(path: Path, e: fx.Expr) -> Optional[fx.Expr]:
    """Remove writes to ``path`` from ``e``; None if not possible."""
    return _Pruner((path,)).prune(path, e)


class _Pruner:
    """Prunes one program's candidate paths, one walk per path.

    Each walk descends only into the subtrees that concern its path
    and returns every other subtree as it is: a subtree in which no
    write, read or emptiness test concerns the path leaves the
    knowledge unchanged, cannot bail, and comes back equal to itself
    when it is in the normal form ``fx.seq``/``fx.ite``/``fx.pand``/
    ``fx.por``/``fx.pnot`` build.  Which candidates a subtree concerns
    is one bit mask per node, computed once per node object and shared
    by the walks of all candidates (the output of one walk reuses most
    of its input's nodes).  A subtree outside that normal form
    concerns every candidate, so the walk rebuilds it exactly as an
    unindexed walk would."""

    def __init__(self, paths: Sequence[Path]) -> None:
        self._bit: Dict[Path, int] = {}
        #: parent -> candidates directly under it.
        self._child_bits: Dict[Path, int] = {}
        for i, p in enumerate(paths):
            self._bit[p] = 1 << i
            parent = p.parent()
            self._child_bits[parent] = self._child_bits.get(parent, 0) | 1 << i
        self._all = (1 << len(paths)) - 1
        self._subtree_bits: Dict[Path, int] = {}
        #: id(node) -> (node, mask); holding the node keeps its id.
        self._masks: Dict[int, Tuple[object, int]] = {}

    def prune(self, path: Path, e: fx.Expr) -> Optional[fx.Expr]:
        try:
            pruned, _ = self._go(e, path, self._bit[path], _INITIAL)
        except _Bail:
            return None
        return pruned

    # -- which candidates a node concerns -----------------------------------

    def _mask(self, node) -> int:
        hit = self._masks.get(id(node))
        if hit is not None:
            return hit[1]
        bit = self._bit.get
        if isinstance(node, (fx.Id, fx.Err, fx.PTrue, fx.PFalse)):
            m = 0
        elif isinstance(node, (fx.Mkdir, fx.Creat)):
            # Creating a child of p reads p.
            m = bit(node.path, 0) | bit(node.path.parent(), 0)
        elif isinstance(node, fx.Rm):
            # rm of p's parent observes p.
            m = bit(node.path, 0) | self._child_bits.get(node.path, 0)
        elif isinstance(node, fx.Cp):
            m = bit(node.dst, 0) | bit(node.src, 0) | bit(node.dst.parent(), 0)
        elif isinstance(node, fx.Seq):
            if isinstance(node.first, (fx.Id, fx.Err)) or isinstance(
                node.second, fx.Id
            ):
                m = self._all  # not what fx.seq builds
            else:
                m = self._mask(node.first) | self._mask(node.second)
        elif isinstance(node, fx.If):
            if isinstance(
                node.pred, (fx.PTrue, fx.PFalse)
            ) or node.then_branch == node.else_branch:
                m = self._all  # not what fx.ite builds
            else:
                m = (
                    self._mask(node.pred)
                    | self._mask(node.then_branch)
                    | self._mask(node.else_branch)
                )
        elif isinstance(node, fx.PNot):
            if isinstance(node.inner, (fx.PTrue, fx.PFalse, fx.PNot)):
                m = self._all  # not what fx.pnot builds
            else:
                m = self._mask(node.inner)
        elif isinstance(node, (fx.PAnd, fx.POr)):
            if isinstance(node.left, (fx.PTrue, fx.PFalse)) or isinstance(
                node.right, (fx.PTrue, fx.PFalse)
            ):
                m = self._all  # not what fx.pand/fx.por build
            else:
                m = self._mask(node.left) | self._mask(node.right)
        elif isinstance(node, fx.IsEmptyDir):
            # Emptiness of p or of an ancestor of p observes p.
            m = self._subtree_bits.get(node.path)
            if m is None:
                m = self._subtree_bits[node.path] = sum(
                    b
                    for p, b in self._bit.items()
                    if p == node.path or node.path.is_ancestor_of(p)
                )
        elif isinstance(node, (fx.IsNone, fx.IsFile, fx.IsDir, fx.IsFileWith)):
            m = bit(node.path, 0)
        else:
            raise TypeError(f"unknown expression: {node!r}")
        self._masks[id(node)] = (node, m)
        return m

    # -- the walk --------------------------------------------------------

    def _go(
        self, e: fx.Expr, p: Path, bit: int, k: Knowledge
    ) -> Tuple[fx.Expr, Knowledge]:
        if isinstance(e, (fx.Id, fx.Err)) or not self._mask(e) & bit:
            return e, k  # nothing in e concerns p (see the class docstring)
        if isinstance(e, fx.Mkdir):
            if e.path != p:
                # Creating a child of p reads p (the parent check): only
                # sound while p still holds its initial value.
                if e.path.parent() == p and k is not _INITIAL:
                    raise _Bail()
                return e, k
            if isinstance(k, (ADir, ADne, AFile)):
                if isinstance(k, ADne):
                    # Precondition reduces to the parent check.
                    return (
                        fx.ite(fx.dir_(p.parent()), fx.ID, fx.ERR),
                        A_DIR,
                    )
                return fx.ERR, k  # target exists: mkdir always fails
            if k is _TAINTED:
                raise _Bail()
            check = fx.pand(fx.none_(p), fx.dir_(p.parent()))
            return fx.ite(check, fx.ID, fx.ERR), A_DIR
        if isinstance(e, fx.Creat):
            if e.path != p:
                if e.path.parent() == p and k is not _INITIAL:
                    raise _Bail()
                return e, k
            if isinstance(k, (ADir, ADne, AFile)):
                if isinstance(k, ADne):
                    return (
                        fx.ite(fx.dir_(p.parent()), fx.ID, fx.ERR),
                        AFile(e.content),
                    )
                return fx.ERR, k
            if k is _TAINTED:
                raise _Bail()
            check = fx.pand(fx.none_(p), fx.dir_(p.parent()))
            return fx.ite(check, fx.ID, fx.ERR), AFile(e.content)
        if isinstance(e, fx.Rm):
            if e.path != p:
                # rm of p's parent observes p's existence (the emptiness
                # check): only sound while p holds its initial value.
                if e.path == p.parent() and k is not _INITIAL:
                    raise _Bail()
                return e, k
            if isinstance(k, (ADir, ADne, AFile)):
                if isinstance(k, ADne):
                    return fx.ERR, k
                if isinstance(k, AFile):
                    return fx.ID, A_DNE
                # Known dir from a *removed* mkdir: emptiness would have to
                # be tested without the dir-ness conjunct, which FS cannot
                # express — bail rather than consult the stale real path.
                raise _Bail()
            if k is _TAINTED:
                raise _Bail()
            check = fx.por(fx.file_(p), fx.emptydir_(p))
            return fx.ite(check, fx.ID, fx.ERR), A_DNE
        if isinstance(e, fx.Cp):
            if e.dst == p:
                if k is _TAINTED:
                    raise _Bail()
                none_check = (
                    fx.TRUE
                    if isinstance(k, ADne)
                    else (
                        fx.FALSE
                        if isinstance(k, (ADir, AFile))
                        else fx.none_(p)
                    )
                )
                check = fx.pand(
                    fx.file_(e.src), none_check, fx.dir_(p.parent())
                )
                # The copied content is the source's — not statically known.
                return fx.ite(check, fx.ID, fx.ERR), _TAINTED
            if e.src == p:
                # A read of the content: only foldable knowledge would be
                # a known file value, but cp still copies real content, so
                # the source read must survive; that is fine unless the
                # knowledge came from removed writes.
                if k is _INITIAL:
                    return e, k
                raise _Bail()
            if e.dst.parent() == p and k is not _INITIAL:
                raise _Bail()
            return e, k
        if isinstance(e, fx.Seq):
            first, k1 = self._go(e.first, p, bit, k)
            second, k2 = self._go(e.second, p, bit, k1)
            return fx.seq(first, second), k2
        if isinstance(e, fx.If):
            folded = _fold_pred(e.pred, p, k)
            if folded is fx.TRUE:
                return self._go(e.then_branch, p, bit, k)
            if folded is fx.FALSE:
                return self._go(e.else_branch, p, bit, k)
            then_e, k1 = self._go(e.then_branch, p, bit, k)
            else_e, k2 = self._go(e.else_branch, p, bit, k)
            merged = k1 if _same_knowledge(k1, k2) else _TAINTED
            return fx.ite(folded, then_e, else_e), merged
        raise TypeError(f"unknown expression: {e!r}")


def _same_knowledge(a: Knowledge, b: Knowledge) -> bool:
    if a is b:
        return True
    return a == b and type(a) is type(b)


def _fold_pred(pred: fx.Pred, p: Path, k: Knowledge) -> fx.Pred:
    """Replace atoms about ``p`` with constants when knowledge allows.

    With ``_INITIAL`` knowledge atoms are kept (they read the
    read-only initial value).  With ``_TAINTED`` knowledge any atom
    about ``p`` forces a bail."""
    if isinstance(pred, (fx.PTrue, fx.PFalse)):
        return pred
    if isinstance(pred, fx.PNot):
        inner = _fold_pred(pred.inner, p, k)
        return fx.pnot(inner)
    if isinstance(pred, fx.PAnd):
        return fx.pand(
            _fold_pred(pred.left, p, k), _fold_pred(pred.right, p, k)
        )
    if isinstance(pred, fx.POr):
        return fx.por(
            _fold_pred(pred.left, p, k), _fold_pred(pred.right, p, k)
        )
    # Atomic predicates.
    target = pred.path  # type: ignore[attr-defined]
    involves_p = target == p or (
        isinstance(pred, fx.IsEmptyDir) and target.is_ancestor_of(p)
    )
    if not involves_p:
        return pred
    if k is _INITIAL:
        return pred
    if k is _TAINTED:
        raise _Bail()
    if isinstance(pred, fx.IsEmptyDir) and target != p:
        # Emptiness of an ancestor observes p; p's state is known but
        # partially folding emptydir? is not expressible — bail.
        raise _Bail()
    return _fold_atom(pred, k)


def _fold_atom(pred: fx.Pred, k: Knowledge) -> fx.Pred:
    assert isinstance(k, (ADir, ADne, AFile))
    if isinstance(pred, fx.IsNone):
        return fx.TRUE if isinstance(k, ADne) else fx.FALSE
    if isinstance(pred, fx.IsDir):
        return fx.TRUE if isinstance(k, ADir) else fx.FALSE
    if isinstance(pred, fx.IsFile):
        return fx.TRUE if isinstance(k, AFile) else fx.FALSE
    if isinstance(pred, fx.IsFileWith):
        if isinstance(k, AFile):
            return fx.TRUE if k.content == pred.content else fx.FALSE
        return fx.FALSE
    if isinstance(pred, fx.IsEmptyDir):
        if isinstance(k, (ADne, AFile)):
            return fx.FALSE
        # Known dir: emptiness still depends on (unpruned) children.
        raise _Bail()
    raise TypeError(f"unknown atomic predicate: {pred!r}")


# ---------------------------------------------------------------------------
# Manifest-level pruning pass
# ---------------------------------------------------------------------------


@dataclass
class PruneReport:
    """What the pass did — feeds the Fig. 11a instrumentation.

    ``stateful_before``/``stateful_after`` count paths some resource
    still *writes* — the quantity whose reduction drives the Fig. 11
    speedups.  ``writers_by_path`` maps every surviving stateful path
    to the indices of the resources writing it — the
    contention-candidate view of a manifest: paths with two or more
    writers are the ones race localization
    (:mod:`repro.analysis.localize`) can end up naming, and a pruned
    path by construction never appears with more than one writer.
    ``footprints`` holds the footprint of each returned program."""

    pruned_paths: List[Path]
    stateful_before: int = 0
    stateful_after: int = 0
    writers_by_path: Dict[Path, List[int]] = field(default_factory=dict)
    footprints: List[Footprint] = field(default_factory=list)


def prune_manifest(
    exprs: Sequence[fx.Expr],
    prints: Optional[Sequence[Footprint]] = None,
) -> Tuple[List[fx.Expr], PruneReport]:
    """Prune every path that is (a) written definitively by exactly one
    resource, (b) untouched by every other resource, and (c) guarded
    only by paths private to that resource (see module docstring).

    ``prints`` — the footprints of ``exprs``, when the caller has them.
    Each resource's candidates (:func:`prune_candidates`) are pruned in
    turn, each on the result of the previous ones; a candidate that
    bails leaves the program as it was."""
    exprs = list(exprs)
    if prints is None:
        prints = [footprint(e) for e in exprs]
    pruned_paths: List[Path] = []
    result = list(exprs)
    final_prints = list(prints)
    for i, candidates in enumerate(prune_candidates(exprs, prints)):
        if not candidates:
            continue
        pruner = _Pruner(candidates)
        e = exprs[i]
        for p in candidates:
            pruned = pruner.prune(p, e)
            if pruned is not None:
                e = pruned
                pruned_paths.append(p)
        if e is not exprs[i]:
            result[i] = e
            final_prints[i] = footprint(e)

    writers_by_path: Dict[Path, List[int]] = {}
    for i, fp in enumerate(final_prints):
        for p in fp.writes | fp.dir_ensures:
            writers_by_path.setdefault(p, []).append(i)
    stateful_before = set().union(
        *[fp.writes | fp.dir_ensures for fp in prints]
    )
    return result, PruneReport(
        pruned_paths,
        len(stateful_before),
        len(writers_by_path),
        writers_by_path,
        final_prints,
    )


def prune_candidates(
    exprs: Sequence[fx.Expr], prints: Sequence[Footprint]
) -> List[List[Path]]:
    """Per resource, the paths the pass tries to prune, in order.  They
    depend only on the original programs and their footprints, so they
    are fixed before any program changes."""
    touched_by: Dict[Path, List[int]] = {}
    for i, fp in enumerate(prints):
        for p in fp.touched():
            touched_by.setdefault(p, []).append(i)
        for d in fp.children_reads:
            # Observing d's children touches every modeled descendant.
            touched_by.setdefault(d, []).append(i)

    # Children observation: resource i reading children of d observes
    # every path under d.
    children_observers: List[Tuple[Path, int]] = []
    for i, fp in enumerate(prints):
        for d in fp.children_reads:
            children_observers.append((d, i))

    def observers_of(p: Path) -> set[int]:
        out = set(touched_by.get(p, ()))
        for d, i in children_observers:
            if d.is_ancestor_of(p):
                out.add(i)
        return out

    def subtree_observers(root: Path) -> set[int]:
        """Resources touching the directory or anything under it."""
        out = set(touched_by.get(root, ()))
        for p, idxs in touched_by.items():
            if root.is_ancestor_of(p):
                out.update(idxs)
        return out

    return [
        [
            p
            for p, wp in analyze_definitive(e).items()
            if not observers_of(p) - {i}
            and _conditions_private(
                wp, i, observers_of, subtree_observers, p
            )
        ]
        for i, e in enumerate(exprs)
    ]


def _conditions_private(
    wp: WriteProfile,
    owner: int,
    observers_of,
    subtree_observers,
    pruned_path: Path,
) -> bool:
    """All guard/condition paths must be private to the owning resource
    (or be the pruned path itself): then the write's occurrence and
    value are the same function of the initial state in every
    permutation."""
    for c in wp.condition_paths:
        if c == pruned_path:
            continue
        if is_fresh_witness(c):
            # Emptiness observation: require the whole subtree private.
            if subtree_observers(c.parent()) - {owner}:
                return False
            continue
        if observers_of(c) - {owner}:
            return False
    return True
