"""Semantic equivalence of FS expressions: ``e1 ≡ e2`` decided by SAT
(the essence of non-determinism checking, §4.2).

Complete thanks to the Fig. 8 domain bounding: both expressions are
encoded over the union of their domains, including fresh witness
children for emptiness observations."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.fs import FileSystem
from repro.fs import syntax as fx
from repro.logic.terms import TermBank
from repro.smt.encoder import apply_expr
from repro.smt.query import Query
from repro.smt.state import initial_constraints, initial_state, states_differ
from repro.smt.values import PathDomains


@dataclass
class EquivalenceResult:
    equivalent: bool
    witness_fs: Optional[FileSystem] = None
    modeled_paths: int = 0
    sat_vars: int = 0
    sat_clauses: int = 0
    total_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.equivalent


def check_equivalence(
    e1: fx.Expr,
    e2: fx.Expr,
    well_formed_initial: bool = True,
) -> EquivalenceResult:
    """Decide ``∀σ. ⟦e1⟧σ = ⟦e2⟧σ``; a witness σ is decoded when not."""
    start = time.perf_counter()
    bank = TermBank()
    domains = PathDomains.for_exprs([e1, e2])
    init = initial_state(bank, domains)
    s1 = apply_expr(bank, init, e1)
    s2 = apply_expr(bank, init, e2)
    goal = bank.and_(
        initial_constraints(bank, domains, well_formed=well_formed_initial),
        states_differ(bank, s1, s2, domains.paths),
    )
    query = Query(bank)
    query.assert_term(goal)
    result = query.check()
    elapsed = time.perf_counter() - start
    if not result.sat:
        return EquivalenceResult(
            True,
            modeled_paths=len(domains),
            sat_vars=result.num_vars,
            sat_clauses=result.num_clauses,
            total_seconds=elapsed,
        )
    from repro.smt.model import decode_filesystem

    witness = decode_filesystem(domains, result.named_model)
    return EquivalenceResult(
        False,
        witness_fs=witness,
        modeled_paths=len(domains),
        sat_vars=result.num_vars,
        sat_clauses=result.num_clauses,
        total_seconds=elapsed,
    )


def check_commutes_semantically(
    e1: fx.Expr, e2: fx.Expr, well_formed_initial: bool = True
) -> EquivalenceResult:
    """Decide ``e1; e2 ≡ e2; e1`` exactly (used when the syntactic
    footprint check of §4.3 cannot prove commutativity)."""
    return check_equivalence(
        fx.seq(e1, e2), fx.seq(e2, e1), well_formed_initial
    )
