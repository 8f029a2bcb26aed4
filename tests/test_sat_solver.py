"""Tests for the CDCL SAT solver, cross-checked against brute force."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import solver as solver_module
from repro.sat.brute import brute_force_solve, check_assignment, count_models
from repro.sat.solver import UNDEF, Solver, solve_cnf


class TestBasics:
    def test_empty_instance_is_sat(self):
        assert solve_cnf([]).sat

    def test_unit(self):
        result = solve_cnf([[1]])
        assert result.sat
        assert result.assignment[1] is True

    def test_conflicting_units(self):
        assert not solve_cnf([[1], [-1]]).sat

    def test_simple_implication_chain(self):
        # 1 -> 2 -> 3, with 1 forced and -3 forced: UNSAT.
        clauses = [[1], [-1, 2], [-2, 3], [-3]]
        assert not solve_cnf(clauses).sat

    def test_model_satisfies(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        result = solve_cnf(clauses)
        assert result.sat
        assert check_assignment(clauses, result.assignment)

    def test_duplicate_literals_are_merged(self):
        assert solve_cnf([[1, 1, 1]]).sat

    def test_tautology_dropped(self):
        assert solve_cnf([[1, -1]]).sat
        # A tautology must not force anything.
        result = solve_cnf([[1, -1], [-1]])
        assert result.sat

    def test_empty_clause_unsat(self):
        assert not solve_cnf([[1], []]).sat

    def test_zero_literal_rejected(self):
        from repro.errors import SolverError

        solver = Solver()
        with pytest.raises(SolverError):
            solver.add_clause([0])

    def test_zero_assumption_rejected(self):
        from repro.errors import SolverError

        solver = Solver()
        solver.add_clause([1, 2])
        with pytest.raises(SolverError):
            solver.solve(assumptions=[0])

    def test_result_truthiness_is_the_verdict(self):
        assert solve_cnf([[1]])
        assert not solve_cnf([[1], [-1]])

    def test_forced_units_hold_in_model(self):
        result = solve_cnf([[1], [-1, 2], [-2, -3]])
        assert result.assignment == {1: True, 2: True, 3: False}

    def test_variables_in_no_clause_stay_unassigned(self):
        # Variables 2..5 are declared but occur in no clause: any value
        # satisfies, so the model leaves them out.
        result = solve_cnf([[1]], 5)
        assert result.assignment == {1: True}


class TestStructured:
    def test_pigeonhole_3_into_2_unsat(self):
        assert not solve_cnf(_pigeonhole(3, 2)).sat

    def test_pigeonhole_4_into_3_unsat(self):
        assert not solve_cnf(_pigeonhole(4, 3)).sat

    def test_pigeonhole_3_into_3_sat(self):
        result = solve_cnf(_pigeonhole(3, 3))
        assert result.sat

    def test_php_5_4(self):
        # Big enough to force real conflict analysis and restarts.
        assert not solve_cnf(_pigeonhole(5, 4)).sat

    def test_xor_chain_sat(self):
        clauses = []
        n = 10
        for i in range(1, n):
            # x_i xor x_{i+1}
            clauses.append([i, i + 1])
            clauses.append([-i, -(i + 1)])
        result = solve_cnf(clauses)
        assert result.sat
        assert check_assignment(clauses, result.assignment)

    def test_at_most_one_block(self):
        n = 8
        clauses = [[i for i in range(1, n + 1)]]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                clauses.append([-i, -j])
        result = solve_cnf(clauses)
        assert result.sat
        assert sum(result.assignment.get(i, False) for i in range(1, n + 1)) == 1


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = Solver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.sat
        assert result.assignment[2] is True

    def test_contradictory_assumption(self):
        solver = Solver()
        solver.add_clause([1])
        assert not solver.solve(assumptions=[-1]).sat

    def test_solver_reusable_after_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert not solver.solve(assumptions=[-1, -2]).sat
        assert solver.solve().sat


def _pigeonhole(pigeons: int, holes: int):
    """var(p, h) = p * holes + h + 1."""
    clauses = []
    for p in range(pigeons):
        clauses.append([p * holes + h + 1 for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-(p1 * holes + h + 1), -(p2 * holes + h + 1)])
    return clauses


def _random_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        vars_ = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
    return clauses


def three_sat(seed, num_vars=90, num_clauses=383):
    """A uniform random 3-SAT instance near the phase transition: big
    enough to restart, small enough to solve in milliseconds."""
    rng = random.Random(seed)
    return [
        [rng.choice([-1, 1]) * v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


#: Per seed: (sat, conflicts, decisions, propagations, restarts,
#: model as a bitmask of true variables) of the reference solver on
#: ``three_sat(seed)``, recorded before the configuration knobs
#: (restart policy, seed jitter, phase and decay) became constants.
REFERENCE_RUNS = {
    0: (False, 271, 332, 6030, 3, None),
    1: (True, 60, 92, 1434, 0, 1761621203014311710624601944),
    2: (True, 118, 152, 2895, 1, 304897878024513517189911002),
    3: (True, 31, 48, 776, 0, 1413922195021030927336949632),
    4: (True, 283, 370, 6885, 3, 2334268368412116949659956686),
    5: (False, 380, 464, 7957, 4, None),
}


class TestConfiguredSolver:
    """The solver's one configuration (Luby restarts with unit 64,
    activity ties broken by variable index, saved phases defaulting to
    False, EVSIDS decay 0.95) is byte-identical to the historical
    reference: same answers, same model, same effort counters."""

    @pytest.mark.parametrize("seed", range(6))
    def test_default_config_is_bit_identical(self, seed):
        solver = Solver()
        for clause in three_sat(seed):
            solver.add_clause(clause)
        result = solver.solve()
        model = (
            sum(1 << v for v, value in result.assignment.items() if value)
            if result.sat
            else None
        )
        assert (
            result.sat,
            solver.conflicts,
            solver.decisions,
            solver.propagations,
            solver.restarts,
            model,
        ) == REFERENCE_RUNS[seed]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_match_oracle(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 9)
        num_clauses = rng.randint(2, int(4.5 * num_vars))
        clauses = _random_cnf(rng, num_vars, num_clauses)
        expected = brute_force_solve(clauses, num_vars)
        result = solve_cnf(clauses, num_vars)
        assert result.sat == (expected is not None)
        if result.sat:
            assert check_assignment(clauses, result.assignment)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_random_instances(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 8)
        clauses = _random_cnf(rng, num_vars, rng.randint(1, 30))
        expected = brute_force_solve(clauses, num_vars)
        result = solve_cnf(clauses, num_vars)
        assert result.sat == (expected is not None)
        if result.sat:
            assert check_assignment(clauses, result.assignment)


class TestNearThresholdAgainstBruteForce:
    """Uniform 3-SAT on 8 variables with 30-50 clauses sits near the
    satisfiability threshold, where both answers are common: verdict
    and full model agree with the exhaustive oracle."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instance_matches_oracle(self, seed):
        rng = random.Random(seed)
        num_vars = 8
        clauses = [
            [
                rng.choice([-1, 1]) * var
                for var in rng.sample(range(1, num_vars + 1), 3)
            ]
            for _ in range(rng.randint(30, 50))
        ]
        oracle = brute_force_solve(clauses, num_vars)
        result = solve_cnf(clauses, num_vars)
        assert result.sat == (oracle is not None)
        if result.sat:
            occurring = {abs(lit) for clause in clauses for lit in clause}
            assert occurring <= set(result.assignment)
            assert check_assignment(clauses, result.assignment)


class ReductionCountingSolver(Solver):
    reductions = 0

    def _reduce_learned(self) -> None:
        super()._reduce_learned()
        self.reductions += 1


class NoReductionSolver(Solver):
    def _reduce_learned(self) -> None:
        pass


def _solved(solver_cls, clauses):
    solver = solver_cls()
    for clause in clauses:
        solver.add_clause(clause)
    return solver, solver.solve()


class TestLearnedClauseReduction:
    """Past 1000 learned clauses the solver drops the longer half.
    These 120-variable instances at ratio 4.26 learn enough to reduce
    once: seeds 1 and 11 are UNSAT, seed 10 is SAT."""

    @pytest.mark.parametrize("seed", [1, 10, 11])
    def test_reduction_keeps_the_verdict(self, seed):
        clauses = three_sat(seed, num_vars=120, num_clauses=511)
        solver, result = _solved(ReductionCountingSolver, clauses)
        _, unreduced = _solved(NoReductionSolver, clauses)
        assert solver.reductions >= 1
        assert result.sat == unreduced.sat
        if result.sat:
            assert check_assignment(clauses, result.assignment)

    def test_dropped_clauses_leave_the_watch_lists(self):
        solver, _ = _solved(
            ReductionCountingSolver, three_sat(1, num_vars=120, num_clauses=511)
        )
        assert solver.reductions >= 1
        live = {id(c) for c in solver._clauses + solver._learned}
        watched = {id(c) for cs in solver._watches.values() for c in cs}
        assert watched <= live


class TestOracleHelpers:
    def test_count_models(self):
        # x1 or x2 over 2 vars has 3 models.
        assert count_models([[1, 2]], 2) == 3

    def test_brute_force_limit(self):
        with pytest.raises(ValueError):
            brute_force_solve([[1]], 30)


class ScanSolver(Solver):
    """The reference branching rule the order heap replaced: scan every
    variable, take the highest activity, the lowest index on ties."""

    def _pick_branch(self) -> int:
        best_var = 0
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if (
                self._occurs[var]
                and self._assign[var] == UNDEF
                and self._activity[var] > best_act
            ):
                best_act = self._activity[var]
                best_var = var
        if best_var == 0:
            return 0
        return best_var if self._phase[best_var] else -best_var


class RescaleCountingSolver(Solver):
    """Counts activity rescales: ``_var_inc`` changes inside ``_bump``
    only when activities pass 1e100 and are scaled down."""

    rescales = 0

    def _bump(self, var: int) -> None:
        var_inc = self._var_inc
        super()._bump(var)
        if self._var_inc != var_inc:
            self.rescales += 1


def _random_3sat(rng: random.Random, num_vars: int, num_clauses: int):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


def _run_session(solver_cls, clauses, rng: random.Random):
    """Solve ``clauses`` incrementally: half up front, then alternating
    assumption queries and batches of added clauses.  Assumptions may
    name a variable no clause mentions."""
    num_vars = max(abs(lit) for clause in clauses for lit in clause)
    cut = len(clauses) // 2
    solver = solver_cls()
    for clause in clauses[:cut]:
        solver.add_clause(clause)
    results = [solver.solve()]
    batches = [clauses[cut:][i::3] for i in range(3)]
    for batch in batches:
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 2), 6)
        ]
        results.append(solver.solve(assumptions=assumptions))
        for clause in batch:
            solver.add_clause(clause)
        results.append(solver.solve())
    return solver, results


def _equivalence_cases():
    cases = [(f"php-{p}-{h}", _pigeonhole(p, h)) for p, h in ((4, 3), (5, 4), (5, 5), (6, 5))]
    for seed in range(8):
        rng = random.Random(seed)
        num_vars = rng.randint(30, 70)
        cases.append((f"3sat-{seed}", _random_3sat(rng, num_vars, int(4.3 * num_vars))))
    return cases


class TestOrderHeap:
    """The order heap must pick exactly what the linear scan picks, so
    every result, model, core and counter stays the same."""

    @pytest.mark.parametrize(
        "name,clauses", _equivalence_cases(), ids=[c[0] for c in _equivalence_cases()]
    )
    def test_heap_matches_linear_scan(self, name, clauses):
        heap_solver, heap_results = _run_session(Solver, clauses, random.Random(name))
        scan_solver, scan_results = _run_session(ScanSolver, clauses, random.Random(name))
        assert heap_results == scan_results
        assert heap_solver.decisions == scan_solver.decisions > 0

    def test_heap_matches_linear_scan_across_activity_rescales(self, monkeypatch):
        # Halving the decay doubles the bump increment every conflict,
        # so activities pass 1e100 after about 330 conflicts.
        monkeypatch.setattr(solver_module, "VAR_DECAY", 0.5)
        clauses = _random_3sat(random.Random(7), 100, 430)
        heap_solver, heap_results = _run_session(
            RescaleCountingSolver, clauses, random.Random(7)
        )
        _, scan_results = _run_session(ScanSolver, clauses, random.Random(7))
        assert heap_solver.rescales > 0
        assert heap_results == scan_results
