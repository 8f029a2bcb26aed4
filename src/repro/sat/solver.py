"""A CDCL SAT solver.

This replaces the Z3 backend of the original Rehearsal artifact.  The
determinacy formulas are propositional after finite-domain encoding
(see DESIGN.md), so a complete SAT solver decides exactly the same
queries.

Features: two-watched-literal propagation, first-UIP conflict-clause
learning with recursive minimization, EVSIDS branching, phase saving,
Luby restarts, and length-based learned-clause deletion.

Branching takes the unassigned variable of highest activity from a
lazy order heap of ``(-activity, var)`` entries (MiniSat's, after Eén
& Sörensson 2003): stale entries are skipped when popped instead of
being updated in place.  The tuple order breaks activity ties towards
the lowest variable index, exactly as a scan over all variables would,
and propagation visits watch lists in the same order as the plain
two-watched-literal loop, so the search (every decision, conflict and
model) is the one a linear-scan solver makes; ``tests/data/
solver-transcript.json`` pins it on the corpus.  Blocker literals are
deliberately absent: they reorder propagation and would move it.

The solver is *incremental*: the clause database — including learned
clauses and root-level units — survives ``solve()`` calls, so a
sequence of related queries shares all derived facts.  Queries are
distinguished by ``assumptions``, temporary unit literals applied as
the first decisions of the search (MiniSat's interface).  When the
instance is unsatisfiable *under the assumptions*, final-conflict
analysis reports the subset of assumptions in the unsat core
(``SolveResult.core``); an empty core means the clauses alone are
unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence

from repro.errors import SolverError

UNDEF = 0
TRUE = 1
FALSE = -1


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``core`` is only meaningful when ``sat`` is False and the query was
    made under assumptions: it holds the subset of the assumption
    literals (as passed) whose conjunction with the clause database is
    already unsatisfiable.  An empty core on an assumption query means
    the clauses alone are unsatisfiable.
    """

    sat: bool
    assignment: Dict[int, bool] = field(default_factory=dict)
    core: List[int] = field(default_factory=list)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0

    def __bool__(self) -> bool:
        return self.sat


#: EVSIDS activity decay.
VAR_DECAY = 0.95
#: Conflicts per Luby restart unit.
RESTART_UNIT = 64


class Solver:
    """CDCL solver over integer literals (DIMACS convention)."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        self._watches: Dict[int, List[List[int]]] = {}
        self._assign: List[int] = [UNDEF]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._occurs: List[bool] = [False]
        # Lazy order heap: every unassigned variable that occurs has an
        # entry keyed by its current activity; other entries are stale
        # and skipped by _pick_branch.
        self._order: List[tuple[float, int]] = []
        self._var_inc = 1.0
        self._ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        if num_vars:
            self.ensure_vars(num_vars)

    # -- clause database ----------------------------------------------------

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.num_vars += 1
            self._assign.append(UNDEF)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            self._occurs.append(False)
            self._watches[self.num_vars] = []
            self._watches[-self.num_vars] = []

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a problem clause; duplicate literals removed, tautologies
        dropped.  Empty clause makes the instance trivially UNSAT.

        Clauses may be added between ``solve()`` calls (the incremental
        interface).  The clause is simplified against the root-level
        assignment first: literals already false at level 0 must not be
        chosen as watches — propagation has moved past them, so a watch
        on one would never fire again and the solver could answer SAT
        with a model violating the clause.
        """
        if not self._ok:
            return
        if self._decision_level() != 0:
            # A real check, not an assert: simplifying the clause
            # against search-level assignments below would silently
            # corrupt it (and -O strips asserts).
            raise SolverError("clauses can only be added at decision level 0")
        seen: set[int] = set()
        clause: List[int] = []
        assign = self._assign
        occurs = self._occurs
        for lit in lits:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            var = lit if lit > 0 else -lit
            if var > self.num_vars:
                self.ensure_vars(var)
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = assign[var] if lit > 0 else -assign[var]
            if value == TRUE:
                return  # satisfied at the root: implied by a unit
            seen.add(lit)
            if value != FALSE:
                clause.append(lit)
            if not occurs[var]:
                occurs[var] = True
                heappush(self._order, (-self._activity[var], var))
        if not clause:
            self._ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], clause):
                self._ok = False
            return
        self._clauses.append(clause)
        self._watch(clause)

    def _watch(self, clause: List[int]) -> None:
        self._watches[-clause[0]].append(clause)
        self._watches[-clause[1]].append(clause)

    # -- assignment helpers ---------------------------------------------------

    def _value(self, lit: int) -> int:
        v = self._assign[abs(lit)]
        if v == UNDEF:
            return UNDEF
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        val = self._value(lit)
        if val == FALSE:
            return False
        if val == TRUE:
            return True
        var = abs(lit)
        self._assign[var] = TRUE if lit > 0 else FALSE
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None.

        The hot loop of the solver, so ``_value`` and ``_enqueue`` are
        inlined: a literal's value is ``assign[lit]`` for a positive
        literal and ``-assign[-lit]`` for a negative one."""
        trail = self._trail
        assign = self._assign
        level = self._level
        reason = self._reason
        watches = self._watches
        decision_level = len(self._trail_lim)
        head = self._queue_head
        propagations = self.propagations
        conflict = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            propagations += 1
            watchers = watches[lit]
            kept: List[List[int]] = []
            watches[lit] = kept
            false_lit = -lit
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                # Normalize: watched literals are clause[0], clause[1].
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == TRUE:
                    kept.append(clause)
                    continue
                # Look for a replacement watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) != FALSE:
                        clause[1], clause[k] = other, clause[1]
                        watches[-other].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    kept.append(clause)
                    if value == FALSE:
                        # Conflict: restore remaining watchers first.
                        kept.extend(watchers[i:])
                        conflict = clause
                        break
                    var = first if first > 0 else -first
                    assign[var] = TRUE if first > 0 else FALSE
                    level[var] = decision_level
                    reason[var] = clause
                    trail.append(first)
            if conflict is not None:
                break
        self._queue_head = head
        self.propagations = propagations
        return conflict

    # -- conflict analysis -------------------------------------------------------

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        reason: Optional[List[int]] = conflict
        index = len(self._trail)
        cur_level = self._decision_level()

        while True:
            assert reason is not None
            for q in reason:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next literal to expand from the trail.
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            reason = self._reason[abs(lit)]
            seen[abs(lit)] = False

        learned = self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        levels = sorted(
            (self._level[abs(q)] for q in learned[1:]), reverse=True
        )
        # Move the second-watch literal into position 1.
        best = max(range(1, len(learned)), key=lambda i: self._level[abs(learned[i])])
        learned[1], learned[best] = learned[best], learned[1]
        return learned, levels[0]

    def _minimize(self, learned: List[int], seen: List[bool]) -> List[int]:
        """Remove literals implied by the rest of the clause (recursive
        clause minimization, memoized — Tseitin reasons can be very
        wide, so the naive recursion is exponential)."""
        memo: Dict[int, bool] = {}
        kept = [learned[0]]
        for q in learned[1:]:
            if not self._redundant(q, seen, memo, depth=0):
                kept.append(q)
        return kept

    def _redundant(
        self, lit: int, seen: List[bool], memo: Dict[int, bool], depth: int
    ) -> bool:
        var = abs(lit)
        cached = memo.get(var)
        if cached is not None:
            return cached
        if depth > 24:
            return False
        reason = self._reason[var]
        if reason is None:
            memo[var] = False
            return False
        result = True
        for q in reason:
            if abs(q) == var:
                continue
            qvar = abs(q)
            if self._level[qvar] == 0 or seen[qvar]:
                continue
            if not self._redundant(q, seen, memo, depth + 1):
                result = False
                break
        memo[var] = result
        return result

    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for i in range(1, self.num_vars + 1):
                activity[i] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()
        elif self._assign[var] == UNDEF:
            heappush(self._order, (-activity[var], var))

    def _decay(self) -> None:
        self._var_inc /= VAR_DECAY

    # -- backtracking ---------------------------------------------------------

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        phase = self._phase
        reason = self._reason
        activity = self._activity
        order = self._order
        for lit in reversed(self._trail[limit:]):
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            assign[var] = UNDEF
            reason[var] = None
            heappush(order, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)
        if len(order) > 4 * self.num_vars:
            self._rebuild_order()

    # -- branching --------------------------------------------------------------

    def _pick_branch(self) -> int:
        """The unassigned occurring variable of highest activity, lowest
        index first on ties, as a literal in its saved phase; 0 when
        every such variable is assigned."""
        order = self._order
        assign = self._assign
        activity = self._activity
        while order:
            key, var = heappop(order)
            if assign[var] == UNDEF and -key == activity[var]:
                return var if self._phase[var] else -var
        return 0

    def _rebuild_order(self) -> None:
        # Vars in no clause (e.g. declared by a DIMACS header but never
        # used) are free: branching on them only pads the trail, so
        # they get no entry.
        assign = self._assign
        activity = self._activity
        occurs = self._occurs
        self._order = order = [
            (-activity[var], var)
            for var in range(1, self.num_vars + 1)
            if occurs[var] and assign[var] == UNDEF
        ]
        heapify(order)

    # -- main loop ---------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Decide satisfiability under temporary ``assumptions``.

        The clause database (problem clauses, learned clauses,
        root-level units) persists across calls; only the assumptions
        are forgotten.  Following MiniSat, assumptions are applied as
        the first decisions of the search and *re-applied after every
        restart*, so learned unit clauses can be retained at level 0
        without ever losing an assumption.  On UNSAT,
        ``SolveResult.core`` holds the implicated assumptions.
        """
        self._backtrack(0)
        if not self._ok:
            return self._result(False)
        assumptions = list(assumptions)
        for lit in assumptions:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            var = abs(lit)
            self.ensure_vars(var)
            if not self._occurs[var]:
                self._occurs[var] = True
                heappush(self._order, (-self._activity[var], var))
        if self._propagate() is not None:
            self._ok = False
            return self._result(False)

        luby_index = 1
        conflicts_until_restart = RESTART_UNIT * _luby(luby_index)
        max_learned = max(1000, len(self._clauses) // 2)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_until_restart -= 1
                if self._decision_level() == 0:
                    self._ok = False
                    return self._result(False)
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learned) == 1:
                    # A learned unit is implied by the clauses alone
                    # (conflict analysis never resolves on assumption
                    # literals), so it is sound — and valuable for
                    # later calls — to fix it at level 0.  Its reason
                    # is itself, which keeps final-conflict analysis
                    # from mistaking it for an assumption.
                    if not self._enqueue(learned[0], learned):
                        self._ok = False
                        self._backtrack(0)
                        return self._result(False)
                else:
                    self._learned.append(learned)
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self._decay()
                if len(self._learned) > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue

            if conflicts_until_restart <= 0:
                self.restarts += 1
                luby_index += 1
                conflicts_until_restart = RESTART_UNIT * _luby(luby_index)
                self._backtrack(0)
                continue

            # Re-establish assumptions first: decision level k holds
            # assumption k (or a dummy level when it already holds).
            lit = 0
            while self._decision_level() < len(assumptions):
                p = assumptions[self._decision_level()]
                v = self._value(p)
                if v == TRUE:
                    self._trail_lim.append(len(self._trail))
                elif v == FALSE:
                    core = self._analyze_final(p)
                    self._backtrack(0)
                    return self._result(False, core=core)
                else:
                    lit = p
                    break
            if lit == 0 and self._decision_level() >= len(assumptions):
                lit = self._pick_branch()
                if lit == 0:
                    result = self._result(True)
                    self._backtrack(0)
                    return result
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _analyze_final(self, p: int) -> List[int]:
        """``p`` is an assumption found FALSE while (re-)applying the
        assumptions: every decision currently on the trail is itself an
        assumption.  Walk the implication graph of ¬p back to decisions
        to collect the implicated assumptions (MiniSat's analyzeFinal).
        """
        core = {p}
        var0 = abs(p)
        if self._level[var0] == 0:
            return sorted(core)  # the clauses alone imply ¬p
        seen = {var0}
        start = self._trail_lim[0]
        for i in range(len(self._trail) - 1, start - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            if var not in seen:
                continue
            seen.discard(var)
            reason = self._reason[var]
            if reason is None:
                core.add(lit)  # a decision == an earlier assumption
            else:
                for q in reason:
                    qv = abs(q)
                    if qv != var and self._level[qv] > 0:
                        seen.add(qv)
        return sorted(core)

    def _reduce_learned(self) -> None:
        """Drop the longer half of learned clauses, keeping those
        currently used as reasons and binary ones."""
        reasons = {id(r) for r in self._reason if r is not None}
        self._learned.sort(key=len)
        keep = self._learned[: len(self._learned) // 2]
        drop = self._learned[len(self._learned) // 2 :]
        kept_drop = [c for c in drop if id(c) in reasons or len(c) <= 2]
        removed = {id(c) for c in drop if id(c) not in reasons and len(c) > 2}
        self._learned = keep + kept_drop
        for lit in list(self._watches):
            self._watches[lit] = [
                c for c in self._watches[lit] if id(c) not in removed
            ]

    def _result(self, sat: bool, core: Optional[List[int]] = None) -> SolveResult:
        assignment: Dict[int, bool] = {}
        if sat:
            assignment = {
                var: self._assign[var] == TRUE
                for var in range(1, self.num_vars + 1)
                if self._assign[var] != UNDEF
            }
        return SolveResult(
            sat=sat,
            assignment=assignment,
            core=list(core or ()),
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
        )


def _luby(i: int) -> int:
    """The Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8…

    If i = 2^k - 1 the value is 2^(k-1); otherwise recurse on
    i - 2^(k-1) + 1 where 2^(k-1) ≤ i < 2^k - 1.
    """
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


def solve_cnf(
    clauses: Sequence[Sequence[int]], num_vars: int = 0
) -> SolveResult:
    """One-shot convenience wrapper."""
    solver = Solver(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()
