"""Tests for the SAT query layer, the benchmark harness functions, and
the explanation renderer."""

import sys
from pathlib import Path

import pytest

from repro.logic.terms import TermBank
from repro.smt.query import Query, check_sat

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))


class TestQueryLayer:
    def test_trivially_true(self):
        bank = TermBank()
        result = check_sat(bank, bank.TRUE)
        assert result.sat
        assert result.num_vars == 0

    def test_trivially_false(self):
        bank = TermBank()
        assert not check_sat(bank, bank.FALSE).sat

    def test_model_decoding(self):
        bank = TermBank()
        a, b = bank.var("a"), bank.var("b")
        result = check_sat(bank, bank.and_(a, bank.not_(b)))
        assert result.sat
        assert result.named_model["a"] is True
        assert result.named_model["b"] is False

    def test_unsat_formula(self):
        bank = TermBank()
        a = bank.var("a")
        assert not check_sat(bank, bank.and_(a, bank.not_(a))).sat

    def test_multiple_assertions(self):
        bank = TermBank()
        q = Query(bank)
        q.assert_term(bank.or_(bank.var("a"), bank.var("b")))
        q.assert_term(bank.not_(bank.var("a")))
        result = q.check()
        assert result.sat
        assert result.named_model["b"] is True

    def test_stats_populated(self):
        bank = TermBank()
        vars_ = [bank.var(f"x{i}") for i in range(6)]
        result = check_sat(bank, bank.exactly_one(vars_))
        assert result.sat
        assert result.num_vars >= 6
        assert result.num_clauses > 0
        assert result.solve_seconds >= 0


    def test_large_query_model_satisfies_formula(self):
        # A few thousand clauses of Tseitin CNF go straight to the solver;
        # the decoded model must satisfy the original term.
        bank = TermBank()
        xs = [bank.var(f"x{i}") for i in range(1500)]
        formula = bank.and_(
            xs[0],
            *(bank.xor(a, b) for a, b in zip(xs, xs[1:])),
        )
        result = check_sat(bank, formula)
        assert result.sat
        assert result.num_clauses > 6000
        assert bank.evaluate(formula, result.named_model)
        assert result.named_model["x1499"] is False

    def test_large_unsat_query(self):
        bank = TermBank()
        xs = [bank.var(f"x{i}") for i in range(1500)]
        q = Query(bank)
        q.assert_term(xs[0])
        for a, b in zip(xs, xs[1:]):
            q.assert_term(bank.xor(a, b))
        q.assert_term(xs[-1])  # the xor chain makes x1499 false
        result = q.check()
        assert not result.sat
        assert result.num_clauses > 6000


class TestHarness:
    def test_timed_determinism_verdicts(self):
        from harness import timed_determinism

        good = timed_determinism(
            "ntp-fixed", use_commutativity=True, use_pruning=True
        )
        assert not good.timed_out
        assert good.deterministic is True
        bad = timed_determinism(
            "ntp-nondet", use_commutativity=True, use_pruning=True
        )
        assert bad.deterministic is False

    def test_timed_out_cell_shows_unknown_counters(self):
        from harness import render_rows, timed_determinism

        result = timed_determinism("irc-nondet", True, True, max_branches=1)
        assert result.timed_out
        assert result.branches_explored > 0
        assert (
            result.distinct_finals,
            result.sat_queries,
            result.sat_conflicts,
        ) == (None, None, None)
        text = render_rows("T", ["cell"], [(result,)])
        assert "timeout" in text
        assert "?f ?q ?c" in text

    def test_synthetic_conflict_graph(self):
        from harness import synthetic_conflict_graph

        graph, programs = synthetic_conflict_graph(3)
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 0
        assert len(programs) == 3

    def test_fig13_rows_monotone_workload(self):
        from harness import fig13_rows

        rows = fig13_rows(ns=(2, 3), timeout=30)
        assert [n for n, _ in rows] == [2, 3]
        assert all(r.seconds >= 0 for _, r in rows)

    def test_render_rows(self):
        from harness import TIMEOUT, render_rows

        text = render_rows(
            "T", ["name", "time"], [("a", 0.5), ("b", TIMEOUT)]
        )
        assert "timeout" in text
        assert "0.500s" in text

    def test_fig11a_subset(self):
        from harness import fig11a_rows

        rows = fig11a_rows()
        assert len(rows) == 13
        for name, before, after in rows:
            assert after <= before


class TestExplanationRendering:
    def test_render_explanation_nondet(self):
        from repro.analysis import check_determinism
        from repro.core.pipeline import Rehearsal
        from repro.core.report import render_explanation
        from repro.corpus import load_source

        tool = Rehearsal()
        graph, programs = tool.compile(load_source("ntp-nondet"))
        result = check_determinism(graph, programs)
        text = render_explanation(result, programs)
        assert "--- order (1) ---" in text
        assert "--- order (2) ---" in text
        assert "FAILED" in text or "success" in text

    def test_render_explanation_deterministic(self):
        from repro.analysis import check_determinism
        from repro.core.pipeline import Rehearsal
        from repro.core.report import render_explanation
        from repro.corpus import load_source

        tool = Rehearsal()
        graph, programs = tool.compile(load_source("ntp-fixed"))
        result = check_determinism(graph, programs)
        assert "nothing to explain" in render_explanation(result, programs)
