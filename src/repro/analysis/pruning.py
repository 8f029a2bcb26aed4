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
condition explained in :mod:`repro.analysis.definitive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.commutativity import footprint
from repro.analysis.definitive import (
    A_DIR,
    A_DNE,
    AFile,
    ADir,
    ADne,
    TOP,
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
    try:
        pruned, _ = _go(e, path, _INITIAL)
    except _Bail:
        return None
    return pruned


def _go(
    e: fx.Expr, p: Path, k: Knowledge
) -> Tuple[fx.Expr, Knowledge]:
    if isinstance(e, (fx.Id, fx.Err)):
        return e, k
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
                else (fx.FALSE if isinstance(k, (ADir, AFile)) else fx.none_(p))
            )
            check = fx.pand(
                fx.file_(e.src), none_check, fx.dir_(p.parent())
            )
            # The copied content is the source's — not statically known.
            return fx.ite(check, fx.ID, fx.ERR), _TAINTED
        if e.src == p:
            # A read of the content: only foldable knowledge would be a
            # known file value, but cp still copies real content, so
            # the source read must survive; that is fine unless the
            # knowledge came from removed writes.
            if k is _INITIAL:
                return e, k
            raise _Bail()
        if e.dst.parent() == p and k is not _INITIAL:
            raise _Bail()
        return e, k
    if isinstance(e, fx.Seq):
        first, k1 = _go(e.first, p, k)
        second, k2 = _go(e.second, p, k1)
        return fx.seq(first, second), k2
    if isinstance(e, fx.If):
        folded = _fold_pred(e.pred, p, k)
        if folded is fx.TRUE:
            return _go(e.then_branch, p, k)
        if folded is fx.FALSE:
            return _go(e.else_branch, p, k)
        then_e, k1 = _go(e.then_branch, p, k)
        else_e, k2 = _go(e.else_branch, p, k)
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

    ``paths_before``/``paths_after`` count the full logical domain
    (reads keep pruned paths alive as read-only, single-variable
    state).  ``stateful_before``/``stateful_after`` count paths some
    resource still *writes* — the quantity whose reduction drives the
    Fig. 11 speedups.  ``writers_by_path`` maps every surviving
    stateful path to the indices of the resources writing it — the
    contention-candidate view of a manifest: paths with two or more
    writers are the ones race localization
    (:mod:`repro.analysis.localize`) can end up naming, and a pruned
    path by construction never appears with more than one writer."""

    pruned_paths: List[Path]
    paths_before: int
    paths_after: int
    stateful_before: int = 0
    stateful_after: int = 0
    writers_by_path: Dict[Path, List[int]] = field(default_factory=dict)


def prune_manifest(
    exprs: Sequence[fx.Expr],
) -> Tuple[List[fx.Expr], PruneReport]:
    """Prune every path that is (a) written definitively by exactly one
    resource, (b) untouched by every other resource, and (c) guarded
    only by paths private to that resource (see module docstring)."""
    from repro.fs.domain import domain_of

    exprs = list(exprs)
    prints = [footprint(e) for e in exprs]
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

    profiles = [analyze_definitive(e) for e in exprs]
    before = len(domain_of(exprs))
    stateful_before = len(
        set().union(*[fp.writes | fp.dir_ensures for fp in prints])
        if prints
        else set()
    )
    pruned_paths: List[Path] = []
    result = exprs

    candidates: List[Tuple[Path, int, WriteProfile]] = []
    for i, prof in enumerate(profiles):
        for p, wp in prof.items():
            candidates.append((p, i, wp))

    for p, i, wp in candidates:
        if observers_of(p) - {i}:
            continue  # another resource observes or affects p
        if not _conditions_private(wp, i, observers_of, subtree_observers, p):
            continue
        pruned = prune(p, result[i])
        if pruned is None:
            continue
        updated = list(result)
        updated[i] = pruned
        result = updated
        pruned_paths.append(p)

    after = len(domain_of(result))
    final_prints = [footprint(e) for e in result]
    stateful_after = len(
        set().union(*[fp.writes | fp.dir_ensures for fp in final_prints])
        if final_prints
        else set()
    )
    writers_by_path: Dict[Path, List[int]] = {}
    for i, fp in enumerate(final_prints):
        for p in fp.writes | fp.dir_ensures:
            writers_by_path.setdefault(p, []).append(i)
    return result, PruneReport(
        pruned_paths,
        before,
        after,
        stateful_before,
        stateful_after,
        writers_by_path,
    )


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
