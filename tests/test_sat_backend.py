"""The pluggable solver-backend layer: the reference solver's fixed
configuration, spec parsing, the external-solver bridge, and the
query-layer plumbing."""

import random
import sys
from pathlib import Path

import pytest

from repro.errors import SolverError
from repro.logic import TermBank
from repro.sat import (
    ExternalBackend,
    Solver,
    SolverBackend,
    check_assignment,
    find_external_solver,
    parse_backend_spec,
    solve_cnf,
)
from repro.sat.backend import solver_counters
from repro.sat.external import parse_solver_output
from repro.smt.query import IncrementalQuery, Query


def random_instance(seed, num_vars=8, num_clauses=30):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = [
            rng.choice([-1, 1]) * rng.randint(1, num_vars)
            for _ in range(width)
        ]
        clauses.append(clause)
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


class TestParseBackendSpec:
    def test_cdcl_returns_plain_solver_factory(self):
        backend = parse_backend_spec("cdcl")()
        assert isinstance(backend, Solver)
        assert isinstance(backend, SolverBackend)

    @pytest.mark.parametrize(
        "spec",
        ["cdcl:9", "portfolio:x", "portfolio:0", "dpll", "external:/no/such/solver"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_external_auto_without_solvers_names_candidates(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        with pytest.raises(ValueError, match="kissat"):
            parse_backend_spec("external:auto")

    def test_solver_counters_shape(self):
        counters = solver_counters(Solver())
        assert set(counters) == {
            "conflicts",
            "decisions",
            "propagations",
            "restarts",
        }


class TestParseSolverOutput:
    def test_competition_sat(self):
        verdict, model = parse_solver_output(
            "c comment\ns SATISFIABLE\nv 1 -2 3\nv -4 0\n"
        )
        assert verdict is True
        assert model == {1: True, 2: False, 3: True, 4: False}

    def test_competition_unsat(self):
        verdict, model = parse_solver_output("s UNSATISFIABLE\n")
        assert verdict is False
        assert model == {}

    def test_minisat_output_file_shape(self):
        verdict, model = parse_solver_output("SAT\n1 -2 3 0\n")
        assert verdict is True
        assert model == {1: True, 2: False, 3: True}
        assert parse_solver_output("UNSAT\n")[0] is False

    def test_no_verdict(self):
        assert parse_solver_output("c nothing to see\n")[0] is None


@pytest.fixture
def fake_solver(tmp_path):
    """A real subprocess speaking the SAT-competition protocol, backed
    by this repo's own solver — exercises the DIMACS round-trip and
    output parsing without any system solver installed."""
    src = Path(__file__).resolve().parents[1] / "src"
    body = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from repro.sat.dimacs import read_dimacs\n"
        "from repro.sat.solver import solve_cnf\n"
        "with open(sys.argv[1]) as handle:\n"
        "    clauses, num_vars = read_dimacs(handle)\n"
        "result = solve_cnf(clauses)\n"
        "if result.sat:\n"
        "    print('s SATISFIABLE')\n"
        "    lits = [v if val else -v for v, val in"
        " sorted(result.assignment.items())]\n"
        "    print('v ' + ' '.join(map(str, lits)) + ' 0')\n"
        "    sys.exit(10)\n"
        "print('s UNSATISFIABLE')\n"
        "sys.exit(20)\n"
    )
    script = tmp_path / "fakesat.py"
    script.write_text(body)
    wrapper = tmp_path / "fakesat"
    wrapper.write_text(
        f"#!/bin/sh\nexec {sys.executable} {script} \"$@\"\n"
    )
    wrapper.chmod(0o755)
    return str(wrapper)


class TestExternalBackend:
    def test_sat_with_model(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([1, 2])
        backend.add_clause([-1])
        result = backend.solve()
        assert result.sat
        assert result.assignment[2] is True
        assert result.assignment.get(1, False) is False

    def test_unsat(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([1])
        backend.add_clause([-1])
        assert not backend.solve().sat

    def test_core_minimization(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([-1])
        result = backend.solve(assumptions=[1, 2, 3])
        assert not result.sat
        assert result.core == [1]

    def test_empty_clause_short_circuits(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        backend.add_clause([])
        assert not backend.solve().sat
        assert backend.clause_database() == [[]]

    def test_satisfies_protocol_with_zero_counters(self, fake_solver):
        backend = ExternalBackend(fake_solver)
        assert isinstance(backend, SolverBackend)
        assert solver_counters(backend) == {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
        }

    def test_spec_resolves_explicit_path(self, fake_solver):
        factory = parse_backend_spec(f"external:{fake_solver}")
        backend = factory()
        backend.add_clause([1])
        assert backend.solve().sat

    def test_missing_binary_is_solver_error(self, tmp_path):
        backend = ExternalBackend(str(tmp_path / "gone"))
        backend.add_clause([1])
        with pytest.raises(SolverError):
            backend.solve()

    def test_find_external_solver_path_form(self, fake_solver):
        assert find_external_solver(fake_solver) == fake_solver
        assert find_external_solver(fake_solver + ".nope") is None


@pytest.mark.skipif(
    find_external_solver() is None,
    reason="no SAT-competition solver (kissat/cadical/minisat) on PATH",
)
class TestRealExternalSolver:
    def test_agrees_with_reference(self):
        backend = parse_backend_spec("external:auto")()
        for seed in range(3):
            clauses = random_instance(seed, num_vars=6, num_clauses=18)
            fresh = ExternalBackend(backend.path)
            for clause in clauses:
                fresh.add_clause(clause)
            result = fresh.solve()
            assert result.sat == solve_cnf(clauses).sat
            if result.sat:
                assert check_assignment(clauses, result.assignment)


class TestQueryBackendPlumbing:
    def test_query_accepts_backend_factory(self):
        bank = TermBank()
        made = []

        def factory():
            made.append(True)
            return Solver()

        q = Query(bank, backend=factory)
        q.assert_term(bank.var("a"))
        result = q.check()
        assert result.sat and made

    def test_incremental_query_routes_through_backend(self):
        bank = TermBank()
        backend = Solver()
        q = IncrementalQuery(bank, backend=lambda: backend)
        assert q.solver is backend
        q.assert_term(bank.or_(bank.var("a"), bank.var("b")))
        selector = q.add_selector("only$b", bank.not_(bank.var("a")))
        result = q.check(assumptions=[selector])
        assert result.sat
        assert result.named_model["b"] is True
