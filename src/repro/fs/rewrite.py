"""Semantics-preserving simplification of FS programs.

Compiled resource programs contain many statically decidable tests —
a package's guarded mkdirs re-test directories the previous step just
ensured, file resources re-test paths they wrote.  This module runs a
forward partial evaluation that threads per-path knowledge through the
program, folding decided predicates and collapsing dead branches,
while keeping every write (unlike pruning, which removes them for a
single designated path).

After an ``if`` the two branches' knowledge is joined per path: what
both agree on survives, and when both leave a file whose content
differs the path is known as ``KFile(None)`` — a file, content
unknown — rather than dropped.  That join is what lets a re-run of a
file resource fold (``if file?(p) then id else creat(p, c)`` leaves a
file either way), so :func:`proves_idempotent` can prove
``e; e ≡ e`` in one pass: it simplifies ``e`` once and then the second
copy from the knowledge the first leaves behind.  Both
:mod:`repro.analysis.idempotence` and lint's REH011 use it.

``simplify(e) ≡ e`` for every input filesystem — the property tests
verify this both concretely and via the SAT-backed equivalence check.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.fs import syntax as fx
from repro.fs.paths import Path
from repro.node import Node, setfield


class KDir(Node):
    __slots__ = ()


class KDne(Node):
    __slots__ = ()


class KFile(Node):
    __slots__ = ("content",)

    def __init__(self, content: Optional[str]) -> None:
        setfield(self, "content", content)  # None = file with unknown content


class KExists(Node):
    """The path exists but its kind is unknown (from ``¬none?``)."""

    __slots__ = ()


K_DIR = KDir()
K_DNE = KDne()
K_EXISTS = KExists()
Knowledge = Union[KDir, KDne, KFile, KExists]
# Absent from the map = unknown.


def simplify(e: fx.Expr) -> fx.Expr:
    out, _ = _simp(e, {})
    return out


def proves_idempotent(e: fx.Expr) -> bool:
    """Whether rewriting proves ``e; e ≡ e`` on every filesystem.

    Exactly ``simplify(seq(e, e)) == simplify(e)``, without simplifying
    ``e`` twice: ``_simp`` of a ``Seq`` is ``fx.seq(first, second)``,
    which equals ``first`` only when ``second`` folds to ``id`` (or
    ``first`` is ``err``, which absorbs the second copy)."""
    once, k = _simp(e, {})
    if isinstance(once, fx.Err):
        return True
    second, _ = _simp(e, k)
    return isinstance(second, fx.Id)


def _simp(
    e: fx.Expr, k: Dict[Path, Knowledge]
) -> Tuple[fx.Expr, Dict[Path, Knowledge]]:
    if isinstance(e, fx.Id):
        return e, k
    if isinstance(e, fx.Err):
        return e, k
    if isinstance(e, fx.Mkdir):
        target = k.get(e.path)
        if isinstance(target, (KDir, KFile, KExists)):
            return fx.ERR, k  # target exists: always fails
        parent = k.get(e.path.parent())
        if not e.path.parent().is_root and isinstance(
            parent, (KDne, KFile)
        ):
            return fx.ERR, k  # parent cannot be a directory
        out = dict(k)
        out[e.path] = K_DIR
        return e, out
    if isinstance(e, fx.Creat):
        target = k.get(e.path)
        if isinstance(target, (KDir, KFile, KExists)):
            return fx.ERR, k
        parent = k.get(e.path.parent())
        if not e.path.parent().is_root and isinstance(
            parent, (KDne, KFile)
        ):
            return fx.ERR, k
        out = dict(k)
        out[e.path] = KFile(e.content)
        return e, out
    if isinstance(e, fx.Rm):
        target = k.get(e.path)
        if isinstance(target, KDne):
            return fx.ERR, k
        out = dict(k)
        out[e.path] = K_DNE
        return e, out
    if isinstance(e, fx.Cp):
        src = k.get(e.src)
        if isinstance(src, (KDne, KDir)):
            return fx.ERR, k
        dst = k.get(e.dst)
        if isinstance(dst, (KDir, KFile, KExists)):
            return fx.ERR, k
        parent = k.get(e.dst.parent())
        if not e.dst.parent().is_root and isinstance(parent, (KDne, KFile)):
            return fx.ERR, k
        out = dict(k)
        if isinstance(src, KFile):
            out[e.dst] = src
        else:
            out[e.dst] = KFile(None)
        return e, out
    if isinstance(e, fx.Seq):
        first, k1 = _simp(e.first, k)
        if isinstance(first, fx.Err):
            return fx.ERR, k
        second, k2 = _simp(e.second, k1)
        if isinstance(second, fx.Err):
            # err absorbs from the right: ⟦e; err⟧σ = err for all σ.
            return fx.ERR, k
        return fx.seq(first, second), k2
    if isinstance(e, fx.If):
        pred = _fold(e.pred, k)
        if isinstance(pred, fx.PTrue):
            return _simp(e.then_branch, k)
        if isinstance(pred, fx.PFalse):
            return _simp(e.else_branch, k)
        then_e, k1 = _simp(e.then_branch, _refine(k, pred, True))
        else_e, k2 = _simp(e.else_branch, _refine(k, pred, False))
        merged: Dict[Path, Knowledge] = {}
        for p, v in k1.items():
            joined = _join(v, k2.get(p))
            if joined is not None:
                merged[p] = joined
        # An always-erroring branch imposes no knowledge on the join.
        if isinstance(then_e, fx.Err):
            merged = k2
        elif isinstance(else_e, fx.Err):
            merged = k1
        return fx.ite(pred, then_e, else_e), merged
    raise TypeError(f"unknown expression: {e!r}")


def _join(
    a: Knowledge, b: Optional[Knowledge]
) -> Optional[Knowledge]:
    """What both branches of an ``if`` know about one path (``None`` =
    nothing): equal knowledge, or a file of unknown content when both
    leave a file but not the same one."""
    if a == b:
        return a
    if isinstance(a, KFile) and isinstance(b, KFile):
        return KFile(None)
    return None


def _fold(pred: fx.Pred, k: Dict[Path, Knowledge]) -> fx.Pred:
    if isinstance(pred, (fx.PTrue, fx.PFalse)):
        return pred
    if isinstance(pred, fx.PNot):
        return fx.pnot(_fold(pred.inner, k))
    if isinstance(pred, fx.PAnd):
        return fx.pand(_fold(pred.left, k), _fold(pred.right, k))
    if isinstance(pred, fx.POr):
        return fx.por(_fold(pred.left, k), _fold(pred.right, k))
    target = pred.path  # type: ignore[attr-defined]
    known = k.get(target)
    if isinstance(pred, fx.IsNone):
        if known is None:
            return pred
        return fx.TRUE if isinstance(known, KDne) else fx.FALSE
    if isinstance(pred, fx.IsDir):
        if target.is_root:
            return fx.TRUE
        if known is None or isinstance(known, KExists):
            return pred
        return fx.TRUE if isinstance(known, KDir) else fx.FALSE
    if isinstance(pred, fx.IsFile):
        if known is None or isinstance(known, KExists):
            return pred
        return fx.TRUE if isinstance(known, KFile) else fx.FALSE
    if isinstance(pred, fx.IsFileWith):
        if known is None or isinstance(known, KExists):
            return pred
        if isinstance(known, KFile):
            if known.content is None:
                return pred  # file, but content unknown
            return (
                fx.TRUE if known.content == pred.content else fx.FALSE
            )
        return fx.FALSE
    if isinstance(pred, fx.IsEmptyDir):
        if known is None or isinstance(known, KExists):
            return pred
        if isinstance(known, (KDne, KFile)):
            return fx.FALSE
        return pred  # known dir: emptiness still depends on children
    raise TypeError(f"unknown predicate: {pred!r}")


def _refine(
    k: Dict[Path, Knowledge], pred: fx.Pred, truth: bool
) -> Dict[Path, Knowledge]:
    """Add knowledge implied by the guard holding (or not)."""
    out = dict(k)
    _refine_into(out, pred, truth)
    return out


def _refine_into(
    k: Dict[Path, Knowledge], pred: fx.Pred, truth: bool
) -> None:
    if isinstance(pred, fx.PNot):
        _refine_into(k, pred.inner, not truth)
        return
    if isinstance(pred, fx.PAnd):
        if truth:
            _refine_into(k, pred.left, True)
            _refine_into(k, pred.right, True)
        return
    if isinstance(pred, fx.POr):
        if not truth:
            _refine_into(k, pred.left, False)
            _refine_into(k, pred.right, False)
        return
    if isinstance(pred, fx.IsNone):
        if truth:
            k[pred.path] = K_DNE
        elif pred.path not in k:
            k[pred.path] = K_EXISTS
        return
    if isinstance(pred, fx.IsDir):
        if truth:
            k[pred.path] = K_DIR
        return
    if isinstance(pred, fx.IsFile):
        if truth and not isinstance(k.get(pred.path), KFile):
            k[pred.path] = KFile(None)
        return
    if isinstance(pred, fx.IsFileWith):
        if truth:
            k[pred.path] = KFile(pred.content)
        return
    if isinstance(pred, fx.IsEmptyDir):
        if truth:
            k[pred.path] = K_DIR
        return
