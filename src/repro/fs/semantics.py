"""Concrete (reference) semantics of FS programs — paper Fig. 5.

``eval_pred`` implements ⟦a⟧ ∈ σ → bool and ``eval_expr`` implements
⟦e⟧ ∈ σ → σ + err.  The error result is the singleton :data:`ERROR`.
This evaluator is the ground truth that the logical encoding
(:mod:`repro.smt.encoder`) is tested against.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple, Union

from repro.fs import syntax as fx
from repro.fs.filesystem import DIR, FileContent, FileSystem


class _ErrorState:
    """The distinguished error state (⟦err⟧)."""

    _instance: Optional["_ErrorState"] = None

    def __new__(cls) -> "_ErrorState":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ERROR"


ERROR = _ErrorState()

Result = Union[FileSystem, _ErrorState]


def is_error(result: Result) -> bool:
    return result is ERROR


def eval_pred(pred: fx.Pred, fs: FileSystem) -> bool:
    """Evaluate a predicate on a concrete filesystem."""
    if isinstance(pred, fx.PTrue):
        return True
    if isinstance(pred, fx.PFalse):
        return False
    if isinstance(pred, fx.IsNone):
        return not fs.exists(pred.path)
    if isinstance(pred, fx.IsFile):
        return fs.is_file(pred.path)
    if isinstance(pred, fx.IsDir):
        return fs.is_dir(pred.path)
    if isinstance(pred, fx.IsEmptyDir):
        return fs.is_empty_dir(pred.path)
    if isinstance(pred, fx.IsFileWith):
        return fs.file_content(pred.path) == pred.content
    if isinstance(pred, fx.PNot):
        return not eval_pred(pred.inner, fs)
    if isinstance(pred, fx.PAnd):
        return eval_pred(pred.left, fs) and eval_pred(pred.right, fs)
    if isinstance(pred, fx.POr):
        return eval_pred(pred.left, fs) or eval_pred(pred.right, fs)
    raise TypeError(f"unknown predicate: {pred!r}")


def eval_expr(expr: fx.Expr, fs: FileSystem) -> Result:
    """Evaluate an expression on a concrete filesystem.

    Returns the resulting :class:`FileSystem` or :data:`ERROR`.
    """
    if isinstance(expr, fx.Id):
        return fs
    if isinstance(expr, fx.Err):
        return ERROR
    if isinstance(expr, fx.Mkdir):
        path = expr.path
        if path.is_root:
            return ERROR
        if fs.is_dir(path.parent()) and not fs.exists(path):
            return fs.with_entry(path, DIR)
        return ERROR
    if isinstance(expr, fx.Creat):
        path = expr.path
        if path.is_root:
            return ERROR
        if fs.is_dir(path.parent()) and not fs.exists(path):
            return fs.with_entry(path, FileContent(expr.content))
        return ERROR
    if isinstance(expr, fx.Rm):
        path = expr.path
        if fs.is_file(path) or fs.is_empty_dir(path):
            if path.is_root:
                return ERROR
            return fs.without_entry(path)
        return ERROR
    if isinstance(expr, fx.Cp):
        src_content = fs.file_content(expr.src)
        dst = expr.dst
        if (
            src_content is not None
            and not dst.is_root
            and fs.is_dir(dst.parent())
            and not fs.exists(dst)
        ):
            return fs.with_entry(dst, FileContent(src_content))
        return ERROR
    if isinstance(expr, fx.Seq):
        intermediate = eval_expr(expr.first, fs)
        if intermediate is ERROR:
            return ERROR
        assert isinstance(intermediate, FileSystem)
        return eval_expr(expr.second, intermediate)
    if isinstance(expr, fx.If):
        branch = (
            expr.then_branch
            if eval_pred(expr.pred, fs)
            else expr.else_branch
        )
        return eval_expr(branch, fs)
    raise TypeError(f"unknown expression: {expr!r}")


class ConcreteRunner:
    """Runs the programs of ``programs`` (node → expression) on
    concrete states, for witness replay, race validation and lint's
    race confirmation.  ``ERROR`` absorbs; each ``(node, state)`` is
    evaluated once, and ``evaluations`` counts those evaluations."""

    __slots__ = ("programs", "evaluations", "_memo")

    def __init__(self, programs: Mapping[Hashable, fx.Expr]):
        self.programs = programs
        self.evaluations = 0
        self._memo: Dict[Tuple[Hashable, FileSystem], Result] = {}

    def step(self, node: Hashable, state: Result) -> Result:
        """``node``'s program on ``state``."""
        if state is ERROR:
            return ERROR
        key = (node, state)
        result = self._memo.get(key)
        if result is None:
            self.evaluations += 1
            result = self._memo[key] = eval_expr(self.programs[node], state)
        return result

    def run(self, order: Iterable[Hashable], state: Result) -> Result:
        """The programs of ``order`` in sequence from ``state``."""
        for node in order:
            state = self.step(node, state)
        return state

    def swap(self, a: Hashable, b: Hashable, state: Result):
        """The outcomes ``(a;b, b;a)`` from ``state``."""
        return (
            self.step(b, self.step(a, state)),
            self.step(a, self.step(b, state)),
        )
