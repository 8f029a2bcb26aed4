"""Tests for the formula bank and Tseitin CNF conversion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.cnf import CNF, tseitin
from repro.logic.terms import TermBank, dag_size
from repro.sat.brute import brute_force_solve
from repro.sat.solver import solve_cnf


@pytest.fixture()
def bank():
    return TermBank()


class TestConstruction:
    def test_interning(self, bank):
        a, b = bank.var("a"), bank.var("b")
        assert bank.and_(a, b) is bank.and_(a, b)
        assert bank.var("a") is a

    def test_commutative_canonical_form(self, bank):
        a, b = bank.var("a"), bank.var("b")
        assert bank.and_(a, b) is bank.and_(b, a)
        assert bank.or_(a, b) is bank.or_(b, a)

    def test_constant_folding(self, bank):
        a = bank.var("a")
        assert bank.and_(a, bank.TRUE) is a
        assert bank.and_(a, bank.FALSE) is bank.FALSE
        assert bank.or_(a, bank.FALSE) is a
        assert bank.or_(a, bank.TRUE) is bank.TRUE

    def test_double_negation(self, bank):
        a = bank.var("a")
        assert bank.not_(bank.not_(a)) is a

    def test_flattening(self, bank):
        a, b, c = bank.var("a"), bank.var("b"), bank.var("c")
        assert bank.and_(a, bank.and_(b, c)) is bank.and_(a, b, c)

    def test_idempotence(self, bank):
        a = bank.var("a")
        assert bank.and_(a, a) is a
        assert bank.or_(a, a) is a

    def test_complement_collapse(self, bank):
        a, b = bank.var("a"), bank.var("b")
        assert bank.and_(a, bank.not_(a), b) is bank.FALSE
        assert bank.or_(a, bank.not_(a), b) is bank.TRUE

    def test_ite_folding(self, bank):
        a, b = bank.var("a"), bank.var("b")
        assert bank.ite(bank.TRUE, a, b) is a
        assert bank.ite(bank.FALSE, a, b) is b
        assert bank.ite(bank.var("c"), a, a) is a

    def test_iff_reflexive(self, bank):
        a = bank.var("a")
        assert bank.iff(a, a) is bank.TRUE


class TestThreadSafety:
    def test_concurrent_interning_never_mints_twins(self):
        """Cube sub-explorers build terms on one shared bank across a
        thread pool; racing threads must still get pointer-equal terms
        for structurally equal formulas and never duplicate a uid."""
        import threading

        bank = TermBank()
        names = [f"v{i}" for i in range(12)]
        barrier = threading.Barrier(4)
        built = [[] for _ in range(4)]

        def worker(slot):
            rng = random.Random(slot)
            barrier.wait()
            for _ in range(300):
                a = bank.var(rng.choice(names))
                b = bank.var(rng.choice(names))
                c = bank.var(rng.choice(names))
                built[slot].append(
                    bank.or_(bank.and_(a, b), bank.not_(c))
                )

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Re-interning serially must return the exact objects the
        # threads built (structural equality implies identity) ...
        for terms in built:
            for t in terms:
                if t.kind == "or":
                    assert bank.or_(*t.args) is t
        # ... and every interned node got a distinct uid.
        uids = [t.uid for t in bank._intern.values()]
        assert len(uids) == len(set(uids))


class TestEvaluate:
    def test_basic(self, bank):
        a, b = bank.var("a"), bank.var("b")
        t = bank.or_(bank.and_(a, bank.not_(b)), bank.and_(bank.not_(a), b))
        assert bank.evaluate(t, {"a": True, "b": False})
        assert not bank.evaluate(t, {"a": True, "b": True})

    def test_exactly_one(self, bank):
        vars_ = [bank.var(f"x{i}") for i in range(4)]
        t = bank.exactly_one(vars_)
        assert bank.evaluate(t, {"x2": True})
        assert not bank.evaluate(t, {})
        assert not bank.evaluate(t, {"x0": True, "x3": True})

    def test_variables(self, bank):
        t = bank.and_(bank.var("a"), bank.or_(bank.var("b"), bank.var("a")))
        assert bank.variables(t) == {"a", "b"}


def _random_term(bank, rng, depth, names):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.1:
            return bank.TRUE
        if choice < 0.2:
            return bank.FALSE
        return bank.var(rng.choice(names))
    kind = rng.choice(["and", "or", "not", "ite"])
    if kind == "not":
        return bank.not_(_random_term(bank, rng, depth - 1, names))
    if kind == "ite":
        return bank.ite(
            _random_term(bank, rng, depth - 1, names),
            _random_term(bank, rng, depth - 1, names),
            _random_term(bank, rng, depth - 1, names),
        )
    args = [
        _random_term(bank, rng, depth - 1, names)
        for _ in range(rng.randint(2, 3))
    ]
    return bank.and_(*args) if kind == "and" else bank.or_(*args)


class TestTseitin:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_equisatisfiable_and_model_correct(self, seed):
        """SAT(tseitin(t)) iff t has a satisfying assignment, and any
        model decoded from the CNF satisfies t."""
        rng = random.Random(seed)
        bank = TermBank()
        names = ["a", "b", "c", "d"]
        t = _random_term(bank, rng, depth=4, names=names)
        cnf, root = tseitin(t, bank)
        cnf.add([root])
        result = solve_cnf(cnf.clauses, cnf.num_vars)
        # Oracle: enumerate assignments of the original variables.
        free = sorted(bank.variables(t))
        has_model = _term_satisfiable(bank, t, free)
        assert result.sat == has_model
        if result.sat:
            named = cnf.decode(result.assignment)
            assert bank.evaluate(t, named)

    def test_shared_inputs_across_terms(self):
        bank = TermBank()
        a = bank.var("a")
        cnf = CNF()
        _, lit1 = tseitin(a, bank, cnf)
        _, lit2 = tseitin(bank.not_(a), bank, cnf)
        cnf.add([lit1])
        cnf.add([lit2])
        assert not solve_cnf(cnf.clauses, cnf.num_vars).sat

    def test_constant_true(self):
        bank = TermBank()
        cnf, root = tseitin(bank.TRUE, bank)
        cnf.add([root])
        assert solve_cnf(cnf.clauses, cnf.num_vars).sat

    def test_constant_false(self):
        bank = TermBank()
        cnf, root = tseitin(bank.FALSE, bank)
        cnf.add([root])
        assert not solve_cnf(cnf.clauses, cnf.num_vars).sat


def _term_satisfiable(bank, t, names):
    from itertools import product

    for bits in product([False, True], repeat=len(names)):
        if bank.evaluate(t, dict(zip(names, bits))):
            return True
    return False


class TestDagSize:
    def test_sharing_keeps_dag_small(self):
        bank = TermBank()
        t = bank.var("x")
        for i in range(20):
            t = bank.and_(t, bank.or_(t, bank.var(f"y{i}")))
        # A tree representation would be exponential; the DAG is linear.
        assert dag_size(t) < 200
