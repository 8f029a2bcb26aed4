"""Tests for the ``rehearsal solve`` subcommand."""

import io
import random

import pytest

from repro.core.cli import main
from repro.sat.brute import brute_force_solve, check_assignment
from repro.sat.dimacs import read_dimacs

SAT_CNF = "c a satisfiable instance\np cnf 3 2\n1 -2 0\n2 3 0\n"
UNSAT_CNF = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def _solve_text(tmp_path, capsys, text):
    """Run ``rehearsal solve`` on ``text``; return (exit code, stdout)."""
    path = tmp_path / "instance.cnf"
    path.write_text(text, encoding="utf8")
    code = main(["solve", str(path)])
    return code, capsys.readouterr().out


def _model(out):
    """The ``v`` line of a SAT answer as a {var: bool} assignment."""
    model_line = next(
        line for line in out.splitlines() if line.startswith("v ")
    )
    lits = [int(tok) for tok in model_line[2:].split()]
    assert lits[-1] == 0
    return {abs(lit): lit > 0 for lit in lits[:-1]}


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.cnf"
    path.write_text(SAT_CNF, encoding="utf8")
    return path


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT_CNF, encoding="utf8")
    return path


class TestSolveCommand:
    def test_sat_exit_code_and_model(self, sat_file, capsys):
        code = main(["solve", str(sat_file)])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        model_line = next(
            line for line in out.splitlines() if line.startswith("v ")
        )
        lits = [int(tok) for tok in model_line[2:].split()]
        assert lits[-1] == 0
        assignment = {abs(lit): lit > 0 for lit in lits[:-1]}
        clauses, _ = read_dimacs(io.StringIO(SAT_CNF))
        assert check_assignment(clauses, assignment)

    def test_unsat_exit_code(self, unsat_file, capsys):
        code = main(["solve", str(unsat_file)])
        assert code == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.cnf")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stats_comment_reports_clauses_and_vars(self, sat_file, capsys):
        main(["solve", str(sat_file)])
        assert "c 2 clauses, 3 vars" in capsys.readouterr().out.splitlines()

    def test_empty_formula_is_sat(self, tmp_path, capsys):
        code, out = _solve_text(tmp_path, capsys, "p cnf 0 0\n")
        assert code == 10
        assert "v 0" in out.splitlines()

    def test_empty_clause_is_unsat(self, tmp_path, capsys):
        code, out = _solve_text(tmp_path, capsys, "p cnf 2 2\n1 2 0\n0\n")
        assert code == 20
        assert "s UNSATISFIABLE" in out

    def test_forced_units_hold_in_model(self, tmp_path, capsys):
        code, out = _solve_text(
            tmp_path, capsys, "p cnf 3 3\n1 0\n-1 2 0\n-2 -3 0\n"
        )
        assert code == 10
        assert _model(out) == {1: True, 2: True, 3: False}

    def test_model_lists_every_declared_variable(self, tmp_path, capsys):
        # Variables 2..5 occur in no clause; the model still covers them.
        code, out = _solve_text(tmp_path, capsys, "p cnf 5 1\n1 0\n")
        assert code == 10
        assert sorted(_model(out)) == [1, 2, 3, 4, 5]

    def test_unterminated_last_clause_is_kept(self, tmp_path, capsys):
        code, _ = _solve_text(tmp_path, capsys, "p cnf 1 2\n1 0\n-1\n")
        assert code == 20

    def test_bad_header_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p dnf 2 1\n1 2 0\n", encoding="utf8")
        assert main(["solve", str(path)]) == 2
        assert "bad DIMACS header" in capsys.readouterr().err

    def test_non_integer_literal_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 2 1\n1 x 0\n", encoding="utf8")
        assert main(["solve", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cnf"
        path.write_bytes(b"p cnf 1 1\n\xff\xfe 0\n")
        assert main(["solve", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestSolveAgainstBruteForce:
    """The subcommand's verdict and model agree with the exhaustive
    oracle on small random instances near the 3-SAT threshold, where
    both answers are common."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instance_matches_oracle(self, seed, tmp_path, capsys):
        rng = random.Random(seed)
        num_vars = 8
        clauses = [
            [
                rng.choice([-1, 1]) * var
                for var in rng.sample(range(1, num_vars + 1), 3)
            ]
            for _ in range(rng.randint(30, 50))
        ]
        text = f"p cnf {num_vars} {len(clauses)}\n" + "".join(
            " ".join(map(str, clause)) + " 0\n" for clause in clauses
        )
        code, out = _solve_text(tmp_path, capsys, text)
        oracle = brute_force_solve(clauses, num_vars)
        assert code == (10 if oracle is not None else 20)
        if oracle is not None:
            model = _model(out)
            assert sorted(model) == list(range(1, num_vars + 1))
            assert check_assignment(clauses, model)
