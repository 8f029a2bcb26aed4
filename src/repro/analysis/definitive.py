"""Detecting definitive writes (paper §4.4, Fig. 10b).

For each path a resource writes, the abstract interpretation computes
what the resource guarantees about the path's final state on success:

* ``AbsVal.BOT`` — untouched;
* ``ADir`` / ``ADne`` / ``AFile(content)`` — placed in that definite
  state (or the resource errors);
* ``AbsVal.TOP`` — indeterminate (e.g. branch-dependent values).

Branches that definitely error contribute nothing (the lemma concerns
success states).  A branch that leaves a path untouched while the other
writes it yields a *conditionally definitive* write: the profile
records every path read by the guards dominating the write (plus ``cp``
sources).  The pruning pass (:mod:`repro.analysis.pruning`) accepts
such writes only when those condition paths are private to the
resource — then the branch taken, and hence the path's final value, is
the same function of the initial state in every permutation, which is
exactly what Lemma 6 needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.fs import syntax as fx
from repro.fs.domain import fresh_child_of, pred_domain
from repro.fs.paths import Path
from repro.node import Node, setfield


class _Bot:
    def __repr__(self) -> str:
        return "⊥"


class _Top:
    def __repr__(self) -> str:
        return "⊤"


BOT = _Bot()
TOP = _Top()


class ADir(Node):
    __slots__ = ()

    def __repr__(self) -> str:
        return "dir"


class ADne(Node):
    __slots__ = ()

    def __repr__(self) -> str:
        return "dne"


class AFile(Node):
    __slots__ = ("content",)

    def __init__(self, content: str) -> None:
        setfield(self, "content", content)

    def __repr__(self) -> str:
        return f"file({self.content!r})"


AbsVal = Union[_Bot, _Top, ADir, ADne, AFile]
A_DIR = ADir()
A_DNE = ADne()


def _join(a: AbsVal, b: AbsVal) -> AbsVal:
    """Branch join with BOT absorption: an untouched branch defers to
    the writing branch (the guard-privacy side condition makes this
    sound — see module docstring)."""
    if a is BOT:
        return b
    if b is BOT:
        return a
    if a == b:
        return a
    return TOP


class WriteProfile(Node):
    """Summary of one resource's effect on one path."""

    __slots__ = ("value", "condition_paths")

    def __init__(
        self, value: AbsVal, condition_paths: FrozenSet[Path]
    ) -> None:
        setfield(self, "value", value)
        setfield(self, "condition_paths", condition_paths)


@dataclass
class _AbsState:
    values: Dict[Path, AbsVal]
    conditions: Dict[Path, FrozenSet[Path]]
    errors: bool = False

    def copy(self) -> "_AbsState":
        return _AbsState(dict(self.values), dict(self.conditions), self.errors)


def analyze_definitive(e: fx.Expr) -> Dict[Path, WriteProfile]:
    """Per-path write profiles for one expression (Fig. 10b)."""
    state = _AbsState({}, {})
    out = _eval(e, state, frozenset())
    if out.errors:
        return {}
    return {
        p: WriteProfile(v, out.conditions.get(p, frozenset()))
        for p, v in out.values.items()
        if v is not BOT
    }


def _eval(
    e: fx.Expr, state: _AbsState, guards: FrozenSet[Path]
) -> _AbsState:
    if state.errors:
        return state
    if isinstance(e, fx.Id):
        return state
    if isinstance(e, fx.Err):
        state = state.copy()
        state.errors = True
        return state
    if isinstance(e, fx.Mkdir):
        return _write(state, e.path, A_DIR, guards)
    if isinstance(e, fx.Creat):
        return _write(state, e.path, AFile(e.content), guards)
    if isinstance(e, fx.Rm):
        return _write(state, e.path, A_DNE, guards)
    if isinstance(e, fx.Cp):
        # The copied value depends on the source: record it as a
        # condition so privacy checking covers value flow.
        return _write(state, e.dst, TOP, guards | {e.src})
    if isinstance(e, fx.Seq):
        return _eval(e.second, _eval(e.first, state, guards), guards)
    if isinstance(e, fx.If):
        guard_paths = _guard_paths(e.pred)
        inner = guards | guard_paths
        then_state = _eval(e.then_branch, state.copy(), inner)
        else_state = _eval(e.else_branch, state.copy(), inner)
        if then_state.errors and else_state.errors:
            out = state.copy()
            out.errors = True
            return out
        if then_state.errors:
            return else_state
        if else_state.errors:
            return then_state
        return _merge(then_state, else_state)
    raise TypeError(f"unknown expression: {e!r}")


def _write(
    state: _AbsState, path: Path, value: AbsVal, guards: FrozenSet[Path]
) -> _AbsState:
    out = state.copy()
    out.values[path] = value
    out.conditions[path] = out.conditions.get(path, frozenset()) | guards
    return out


def _merge(a: _AbsState, b: _AbsState) -> _AbsState:
    # Paths in first-write order, ``a``'s first: the profile's order is
    # the pruning pass's candidate order, so it must not depend on the
    # hash seed.
    values: Dict[Path, AbsVal] = {}
    for p in {**a.values, **b.values}:
        values[p] = _join(a.values.get(p, BOT), b.values.get(p, BOT))
    conditions: Dict[Path, FrozenSet[Path]] = {}
    for p in {**a.conditions, **b.conditions}:
        conditions[p] = a.conditions.get(p, frozenset()) | b.conditions.get(
            p, frozenset()
        )
    return _AbsState(values, conditions, False)


def _guard_paths(pred: fx.Pred) -> FrozenSet[Path]:
    """Paths observed by a guard; emptiness tests include the fresh
    witness child so descendant writes void privacy."""
    return frozenset(pred_domain(pred))
