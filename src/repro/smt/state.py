"""Symbolic logical states Σ = ⟨ok, fs⟩ (paper Fig. 7).

A :class:`SymbolicState` pairs an ``ok`` term (true iff no error has
occurred) with a symbolic filesystem mapping every domain path to a
:class:`~repro.smt.values.SymbolicValue`.  States are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

from repro.fs.filesystem import FileSystem
from repro.fs.paths import Path
from repro.logic.terms import Term, TermBank
from repro.smt.values import (
    DomainValue,
    PathDomains,
    SymbolicValue,
    V_DIR,
    V_DNE,
    initial_var_name,
    value_of_content,
)


@dataclass(frozen=True)
class SymbolicState:
    ok: Term
    fs: Mapping[Path, SymbolicValue]
    #: Lazily computed by :meth:`fingerprint`; excluded from equality.
    _fp: Optional[tuple] = field(default=None, compare=False, repr=False)

    def fingerprint(self) -> tuple:
        """Structural identity of the whole state: the ``ok`` term's
        uid plus every path's value fingerprint.  Terms are hash-consed
        in the bank, so fingerprint equality means every constituent
        formula is pointer-equal — two states with equal fingerprints
        are the same function of the initial filesystem, and any
        exploration continuing from them is identical.  The determinacy
        analysis keys its reachable-state memo table on this (paired
        with the set of remaining resources).

        Cost: O(paths) on first call (value fingerprints are cached on
        the shared :class:`SymbolicValue` objects), O(1) after — the
        tuple is cached on the state.
        """
        fp = self._fp
        if fp is None:
            fp = (
                self.ok.uid,
                tuple(
                    (path, value.fingerprint())
                    for path, value in self.fs.items()
                ),
            )
            object.__setattr__(self, "_fp", fp)
        return fp

    def value(self, path: Path) -> SymbolicValue:
        try:
            return self.fs[path]
        except KeyError:
            raise KeyError(
                f"path {path} is outside the logical domain; "
                "extend the domain (Fig. 8) before encoding"
            ) from None

    def with_ok(self, ok: Term) -> "SymbolicState":
        return SymbolicState(ok, self.fs)

    def update(self, path: Path, value: SymbolicValue) -> "SymbolicState":
        fs = dict(self.fs)
        fs[path] = value
        return SymbolicState(self.ok, fs)


def initial_state(bank: TermBank, domains: PathDomains) -> SymbolicState:
    """Fully symbolic initial state: one boolean variable per
    (path, domain value) pair."""
    fs: Dict[Path, SymbolicValue] = {}
    for path in domains.paths:
        indicators = {
            value: bank.var(initial_var_name(path, value))
            for value in domains.values(path)
        }
        fs[path] = SymbolicValue(indicators)
    return SymbolicState(bank.TRUE, fs)


def initial_constraints(
    bank: TermBank,
    domains: PathDomains,
    well_formed: bool = True,
) -> Term:
    """Exactly-one per path; optionally filesystem well-formedness
    (a non-root path that exists has a directory parent)."""
    parts = []
    for path in domains.paths:
        vars_ = [
            bank.var(initial_var_name(path, value))
            for value in domains.values(path)
        ]
        parts.append(bank.exactly_one(vars_))
    if well_formed:
        domain_set = set(domains.paths)
        for path in domains.paths:
            parent = path.parent()
            if parent.is_root or parent not in domain_set:
                continue
            exists = bank.not_(bank.var(initial_var_name(path, V_DNE)))
            parent_dir = bank.var(initial_var_name(parent, V_DIR))
            parts.append(bank.implies(exists, parent_dir))
    return bank.and_(*parts)


def assignment_for_fs(
    domains: PathDomains, fs: FileSystem
) -> Dict[str, bool]:
    """The variable assignment describing a concrete initial filesystem
    (for evaluating encoded formulas concretely in tests)."""
    out: Dict[str, bool] = {}
    for path in domains.paths:
        actual = value_of_content(fs.lookup(path))
        for value in domains.values(path):
            out[initial_var_name(path, value)] = value == actual
    return out


def states_differ(
    bank: TermBank,
    s1: SymbolicState,
    s2: SymbolicState,
    paths: Iterable[Path],
) -> Term:
    """Σ1 ≠ Σ2: error-status mismatch, or both ok and some path's final
    value differs.  Path values are only compared under both-ok, so
    garbage tracked past an error never produces spurious differences."""
    ok_mismatch = bank.xor(s1.ok, s2.ok)
    diffs = []
    for path in paths:
        v1 = s1.value(path)
        v2 = s2.value(path)
        if v1 is v2:
            continue
        diffs.append(bank.not_(v1.equals(bank, v2)))
    fs_mismatch = bank.and_(s1.ok, s2.ok, bank.or_(*diffs))
    return bank.or_(ok_mismatch, fs_mismatch)
