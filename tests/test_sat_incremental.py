"""Tests for incremental assumption-based solving and unsat cores
(repro.sat.solver + repro.smt.query.IncrementalQuery)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.terms import TermBank
from repro.sat.brute import brute_force_solve, check_assignment
from repro.sat.solver import Solver
from repro.smt.query import IncrementalQuery


class TestAssumptionCores:
    def test_core_names_the_conflicting_assumptions(self):
        solver = Solver(3)
        solver.add_clause([-1, -2])  # 1 and 2 cannot both hold
        result = solver.solve(assumptions=[1, 2, 3])
        assert not result.sat
        assert set(result.core) <= {1, 2, 3}
        assert {1, 2} <= set(result.core) or result.core == [1] or result.core == [2]
        # 3 is irrelevant and must not be implicated once minimal.
        result2 = solver.solve(assumptions=sorted(result.core))
        assert not result2.sat

    def test_assumption_contradicting_formula_has_singleton_core(self):
        solver = Solver(2)
        solver.add_clause([1])
        result = solver.solve(assumptions=[-1])
        assert not result.sat
        assert result.core == [-1]

    def test_empty_core_means_formula_unsat(self):
        solver = Solver(1)
        solver.add_clause([1])
        solver.add_clause([-1])
        result = solver.solve(assumptions=[1])
        assert not result.sat
        assert result.core == []

    def test_propagated_assumption_chain_in_core(self):
        solver = Solver(4)
        solver.add_clause([-1, 2])  # 1 -> 2
        solver.add_clause([-2, 3])  # 2 -> 3
        solver.add_clause([-3, -4])  # 3 -> not 4
        result = solver.solve(assumptions=[1, 4])
        assert not result.sat
        assert set(result.core) == {1, 4}

    def test_both_polarities_assumed(self):
        solver = Solver(2)
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[1, -1])
        assert not result.sat
        assert set(result.core) == {1, -1}

    def test_solver_stays_usable_after_assumption_unsat(self):
        solver = Solver(2)
        solver.add_clause([-1, -2])
        assert not solver.solve(assumptions=[1, 2]).sat
        assert solver.solve(assumptions=[1]).sat
        assert solver.solve(assumptions=[2]).sat
        assert solver.solve().sat

    def test_learned_clauses_survive_calls(self):
        rng = random.Random(5)
        clauses = []
        for _ in range(60):
            clause = [
                rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(3)
            ]
            clauses.append(clause)
        solver = Solver(12)
        for clause in clauses:
            solver.add_clause(clause)
        first = solver.solve(assumptions=[1])
        conflicts_first = solver.conflicts
        second = solver.solve(assumptions=[1])
        # The second identical query replays propagation over retained
        # clauses; it must not redo the first call's conflicts.
        assert solver.conflicts - conflicts_first <= conflicts_first + 1
        assert first.sat == second.sat

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_assumption_queries_match_oracle(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 8)
        clauses = [
            [
                rng.choice([-1, 1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(rng.randint(1, 20))
        ]
        solver = Solver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        for _ in range(3):
            assumptions = [
                rng.choice([-1, 1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(0, 3))
            ]
            result = solver.solve(assumptions=assumptions)
            oracle = brute_force_solve(
                clauses + [[a] for a in assumptions], num_vars
            )
            assert result.sat == (oracle is not None)
            if result.sat:
                full = {
                    v: result.assignment.get(v, False)
                    for v in range(1, num_vars + 1)
                }
                assert check_assignment(
                    clauses + [[a] for a in assumptions], full
                )
            else:
                assert set(result.core) <= set(assumptions)
                # The core itself must already be unsatisfiable.
                assert (
                    brute_force_solve(
                        clauses + [[a] for a in result.core], num_vars
                    )
                    is None
                )


class TestIncrementalClauseAddition:
    def test_clause_over_root_falsified_watches_still_propagates(self):
        """Regression: a clause added between solve() calls whose first
        two literals are already false at level 0 must be simplified
        before watching, or it is never visited again."""
        solver = Solver(3)
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve().sat
        solver.add_clause([1, 2, 3])
        result = solver.solve()
        assert result.sat
        assert result.assignment[3] is True

    def test_unsat_after_adding_root_falsified_clause(self):
        solver = Solver(3)
        solver.add_clause([-1])
        solver.add_clause([-2])
        solver.add_clause([-3])
        assert solver.solve().sat
        solver.add_clause([1, 2, 3])
        assert not solver.solve().sat

    def test_root_satisfied_clause_is_dropped(self):
        solver = Solver(2)
        solver.add_clause([1])
        assert solver.solve().sat
        solver.add_clause([1, 2])
        assert solver.solve().sat
        assert solver._clauses == []  # the unit is on the trail only

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_interleaved_adds_and_solves_match_oracle(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 7)
        solver = Solver(num_vars)
        clauses = []
        for _ in range(4):
            batch = [
                [
                    rng.choice([-1, 1]) * rng.randint(1, num_vars)
                    for _ in range(rng.randint(1, 3))
                ]
                for _ in range(rng.randint(1, 6))
            ]
            for clause in batch:
                solver.add_clause(clause)
            clauses.extend(batch)
            result = solver.solve()
            oracle = brute_force_solve(clauses, num_vars)
            assert result.sat == (oracle is not None)
            if result.sat:
                full = {
                    v: result.assignment.get(v, False)
                    for v in range(1, num_vars + 1)
                }
                assert check_assignment(clauses, full)
            else:
                break


class TestIncrementalQuery:
    def test_selectors_isolate_guarded_terms(self):
        bank = TermBank()
        x = bank.var("x")
        query = IncrementalQuery(bank)
        query.assert_term(bank.or_(x, bank.var("y")))
        s_pos = query.add_selector("pos", x)
        s_neg = query.add_selector("neg", bank.not_(x))
        assert query.check(assumptions=[s_pos]).sat
        assert query.check(assumptions=[s_neg]).sat
        result = query.check(assumptions=[s_pos, s_neg])
        assert not result.sat
        assert set(result.core_lits) == {s_pos, s_neg}

    def test_core_reports_every_implicated_selector(self):
        bank = TermBank()
        query = IncrementalQuery(bank)
        a, b, c = bank.var("a"), bank.var("b"), bank.var("c")
        query.assert_term(bank.or_(a, b, c))
        s1 = query.add_selector("kill-a", bank.not_(a))
        s2 = query.add_selector("kill-b", bank.not_(b))
        s3 = query.add_selector("kill-c", bank.not_(c))
        result = query.check(assumptions=[s1, s2, s3])
        assert not result.sat
        assert set(result.core_lits) == {s1, s2, s3}

    def test_guarded_false_term_unsat_with_core(self):
        # The guard s → false is the unit ¬s; the solver must see it so
        # the assumption conflicts and lands in the core.
        bank = TermBank()
        query = IncrementalQuery(bank)
        query.assert_term(bank.or_(bank.var("x"), bank.var("y")))
        s = query.add_selector("impossible", bank.FALSE)
        result = query.check(assumptions=[s])
        assert not result.sat
        assert result.core_lits == [s]
        assert query.check().sat

    def test_selectors_added_after_first_check(self):
        bank = TermBank()
        x, y = bank.var("x"), bank.var("y")
        query = IncrementalQuery(bank)
        query.assert_term(bank.or_(x, y))
        assert query.check().sat
        s = query.add_selector("later", bank.and_(bank.not_(x), bank.not_(y)))
        result = query.check(assumptions=[s])
        assert not result.sat
        assert result.core_lits == [s]
        assert query.check().sat

    def test_named_model_respects_assumptions(self):
        bank = TermBank()
        x = bank.var("x")
        query = IncrementalQuery(bank)
        query.assert_term(bank.or_(x, bank.not_(x)))
        s = query.add_selector("force-x", x)
        result = query.check(assumptions=[s])
        assert result.sat
        assert result.named_model["x"] is True

    def test_each_clause_reaches_the_solver_exactly_once(self, monkeypatch):
        handed = []
        add_clause = Solver.add_clause

        def recording(self, lits):
            handed.append(tuple(lits))
            add_clause(self, lits)

        monkeypatch.setattr(Solver, "add_clause", recording)
        bank = TermBank()
        x, y, z = bank.var("x"), bank.var("y"), bank.var("z")
        query = IncrementalQuery(bank)
        query.assert_term(bank.or_(x, y))
        assert query.check().sat
        s = query.add_selector("no-x", bank.not_(x))
        query.assert_term(bank.implies(y, z))
        assert query.check(assumptions=[s]).sat
        assert query.check().sat  # nothing new to hand over
        assert handed == [tuple(clause) for clause in query.cnf.clauses]

    def test_large_chain_decided_directly(self):
        # x0 and x0 → x1 → … → xn: several thousand Tseitin clauses, all
        # handed straight to the solver; the chain forces every xi.
        bank = TermBank()
        xs = [bank.var(f"x{i}") for i in range(2500)]
        query = IncrementalQuery(bank)
        query.assert_term(xs[0])
        for a, b in zip(xs, xs[1:]):
            query.assert_term(bank.implies(a, b))
        result = query.check()
        assert result.sat
        assert result.num_clauses > 6000
        assert all(result.named_model[f"x{i}"] for i in range(2500))
        s = query.add_selector("last-false", bank.not_(xs[-1]))
        result = query.check(assumptions=[s])
        assert not result.sat
        assert result.core_lits == [s]
