"""SAT query plumbing: term → CNF → CDCL → named model.

Two interfaces:

* :class:`Query` — a one-shot satisfiability question.  The formula is
  Tseitin-encoded, solved, and the model decoded onto the named input
  variables.

* :class:`IncrementalQuery` — many related questions over one shared
  solver instance.  Terms asserted with :meth:`IncrementalQuery.assert_term`
  hold in every call; terms registered with
  :meth:`IncrementalQuery.add_selector` are guarded by a fresh selector
  variable and only enforced when that selector is passed as an
  assumption to :meth:`IncrementalQuery.check`.  Clauses — including
  everything the CDCL solver *learns* — are retained across calls, and
  an UNSAT answer carries the assumption literals in the unsat core.
  Terms encoded later share the persistent Tseitin cache; each
  ``check()`` hands the solver only the clauses added since the last
  one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.logic.cnf import CNF, TseitinEncoder
from repro.logic.terms import Term, TermBank
from repro.sat.solver import Solver


@dataclass
class QueryResult:
    sat: bool
    named_model: Dict[str, bool] = field(default_factory=dict)
    #: On UNSAT under assumptions: the implicated assumption literals
    #: (subset of those passed to ``check``).  Empty when the asserted
    #: formula alone is unsatisfiable.
    core_lits: List[int] = field(default_factory=list)
    num_vars: int = 0
    num_clauses: int = 0
    solve_seconds: float = 0.0
    conflicts: int = 0
    decisions: int = 0


class Query:
    """A single satisfiability question over a term bank, solved on a
    fresh CDCL solver."""

    def __init__(self, bank: TermBank):
        self.bank = bank
        self._assertions: list[Term] = []

    def assert_term(self, term: Term) -> None:
        self._assertions.append(term)

    def check(self) -> QueryResult:
        formula = self.bank.and_(*self._assertions)
        if formula is self.bank.TRUE:
            return QueryResult(sat=True)
        if formula is self.bank.FALSE:
            return QueryResult(sat=False)
        encoder = TseitinEncoder()
        cnf = encoder.cnf
        root_lit = encoder.lit(formula)
        cnf.add([root_lit])
        start = time.perf_counter()
        solver = Solver()
        for clause in cnf.clauses:
            solver.add_clause(clause)
        result = solver.solve()
        elapsed = time.perf_counter() - start
        return QueryResult(
            sat=result.sat,
            named_model=cnf.decode(result.assignment) if result.sat else {},
            num_vars=cnf.num_vars,
            num_clauses=len(cnf.clauses),
            solve_seconds=elapsed,
            conflicts=result.conflicts,
            decisions=result.decisions,
        )


class IncrementalQuery:
    """Assumption-based incremental solving over one shared CDCL
    solver: clauses and learned facts persist across ``check`` calls."""

    def __init__(self, bank: TermBank):
        self.bank = bank
        self.cnf = CNF()
        self._encoder = TseitinEncoder(self.cnf)
        self._solver = Solver()
        self._flushed = 0  # cnf.clauses already handed to the solver
        self.checks = 0
        self.solve_seconds = 0.0
        #: CDCL work over every ``check`` on this solver (mirrors the
        #: shared solver's lifetime totals) — wall-clock-free effort
        #: counters for profiling and regression guards; each
        #: ``QueryResult`` reports its own per-call delta, so
        #: learned-clause reuse shows up as later checks costing few
        #: conflicts.
        self.conflicts = 0
        self.decisions = 0

    # -- building -----------------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Assert ``term`` unconditionally, for this and every later
        ``check``."""
        if term is self.bank.TRUE:
            return
        self.cnf.add([self._encoder.lit(term)])

    def add_selector(self, name: str, term: Term) -> int:
        """Register a guarded term: returns a fresh selector variable
        ``s`` with the clause ``s → term``, so passing ``s`` as an
        assumption enforces ``term`` for that call only."""
        selector = self.cnf.new_var(name)
        self.cnf.add([-selector, self._encoder.lit(term)])
        return selector

    # -- solving ------------------------------------------------------------

    def check(self, assumptions: Sequence[int] = ()) -> QueryResult:
        """Decide satisfiability of the asserted terms plus the guarded
        terms whose selectors appear in ``assumptions``."""
        start = time.perf_counter()
        # Hand the solver the clauses added since the last check.
        while self._flushed < len(self.cnf.clauses):
            self._solver.add_clause(self.cnf.clauses[self._flushed])
            self._flushed += 1
        result = self._solver.solve(assumptions=assumptions)
        elapsed = time.perf_counter() - start
        self.checks += 1
        self.solve_seconds += elapsed
        # SolveResult counters are the shared solver's lifetime
        # totals, so this call's share is the delta since the last
        # check.
        call_conflicts = result.conflicts - self.conflicts
        call_decisions = result.decisions - self.decisions
        self.conflicts = result.conflicts
        self.decisions = result.decisions
        return QueryResult(
            sat=result.sat,
            named_model=(
                self.cnf.decode(result.assignment) if result.sat else {}
            ),
            core_lits=list(result.core),
            num_vars=self.cnf.num_vars,
            num_clauses=len(self.cnf.clauses),
            solve_seconds=elapsed,
            conflicts=call_conflicts,
            decisions=call_decisions,
        )


def check_sat(bank: TermBank, term: Term) -> QueryResult:
    """One-shot satisfiability check of a single term."""
    query = Query(bank)
    query.assert_term(term)
    return query.check()
