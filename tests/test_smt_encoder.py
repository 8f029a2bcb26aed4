"""Validation of the Fig. 7 encoding against the reference evaluator.

The central property: for every FS expression e and concrete initial
filesystem σ over the program domain, evaluating the symbolic state
under σ's assignment agrees with the reference interpreter — both on
the ok bit and on every path's final value.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import (
    ERR,
    ERROR,
    ID,
    FileSystem,
    Path,
    cp,
    creat,
    dir_,
    emptydir_,
    eval_expr,
    file_,
    file_with,
    ite,
    mkdir,
    none_,
    pand,
    pnot,
    por,
    rm,
    seq,
)
from repro.fs.filesystem import DIR, FileContent
from repro.logic.terms import TermBank
from repro.smt.encoder import apply_expr
from repro.smt.model import decode_filesystem
from repro.smt.query import check_sat
from repro.smt.state import (
    assignment_for_fs,
    initial_constraints,
    initial_state,
    states_differ,
)
from repro.smt.values import PathDomains, value_of_content


def _symbolic_agrees_with_concrete(expr, fs):
    """Check encoder vs interpreter on one expression and state."""
    bank = TermBank()
    domains = PathDomains.for_exprs([expr])
    sym = apply_expr(bank, initial_state(bank, domains), expr)
    assignment = assignment_for_fs(domains, fs)
    concrete = eval_expr(expr, fs)
    ok = bank.evaluate(sym.ok, assignment)
    if concrete is ERROR:
        assert not ok, f"encoder says ok, interpreter errors: {expr}"
        return
    assert ok, f"encoder says error, interpreter succeeds: {expr}"
    for path in domains.paths:
        expected = value_of_content(concrete.lookup(path))
        sv = sym.value(path)
        for value, term in sv.indicators.items():
            holds = bank.evaluate(term, assignment)
            if value == expected:
                assert holds, f"{path} should be {expected} after {expr}"
            else:
                assert not holds, f"{path} cannot be {value} after {expr}"


def _enumerate_filesystems(domains, paths):
    """All well-formed filesystems over the given paths, with each
    path's content drawn from its finite domain (one literal plus one
    generic to keep the product tractable)."""
    paths = sorted(paths)
    per_path_options = []
    for p in paths:
        contents = sorted(domains.contents(p))
        literals = [c for c in contents if not c.startswith("ω")][:1]
        generics = [c for c in contents if c.startswith("ω")][:1]
        options = [None, DIR] + [
            FileContent(c) for c in literals + generics
        ]
        per_path_options.append(options)
    for combo in product(*per_path_options):
        entries = {
            p: c for p, c in zip(paths, combo) if c is not None
        }
        fs = FileSystem(entries)
        if fs.is_well_formed():
            yield fs


CORE_EXPRS = [
    ID,
    ERR,
    mkdir("/a"),
    mkdir("/a/b"),
    creat("/f", "x"),
    creat("/a/f", "x"),
    rm("/a"),
    rm("/f"),
    cp("/f", "/g"),
    cp("/f", "/a/g"),
    seq(mkdir("/a"), mkdir("/a/b")),
    seq(mkdir("/a"), creat("/a/f", "x"), rm("/a/f"), rm("/a")),
    ite(none_(Path.of("/a")), mkdir("/a")),
    ite(dir_(Path.of("/a")), ID, ERR),
    ite(emptydir_(Path.of("/a")), ID, ERR),
    ite(file_(Path.of("/f")), rm("/f"), creat("/f", "y")),
    ite(file_with(Path.of("/f"), "x"), ID, ERR),
    ite(
        por(file_(Path.of("/f")), dir_(Path.of("/a"))),
        ERR,
        creat("/f", "z"),
    ),
    ite(
        pand(dir_(Path.of("/a")), pnot(file_(Path.of("/a/f")))),
        creat("/a/f", "w"),
        ID,
    ),
    seq(cp("/src", "/dst"), rm("/src")),
]


class TestEncoderAgainstInterpreter:
    @pytest.mark.parametrize("expr", CORE_EXPRS, ids=lambda e: repr(e)[:60])
    def test_exhaustive_small_states(self, expr):
        domains = PathDomains.for_exprs([expr])
        # Cap enumeration: use at most 4 paths.
        paths = domains.paths[:4]
        for fs in _enumerate_filesystems(domains, paths):
            _symbolic_agrees_with_concrete(expr, fs)


def _random_expr(rng, depth):
    paths = ["/a", "/a/b", "/a/f", "/f", "/g"]
    if depth == 0 or rng.random() < 0.35:
        kind = rng.choice(["id", "err", "mkdir", "creat", "rm", "cp"])
        if kind == "id":
            return ID
        if kind == "err":
            return ERR
        if kind == "mkdir":
            return mkdir(rng.choice(paths))
        if kind == "creat":
            return creat(rng.choice(paths), rng.choice(["x", "y"]))
        if kind == "rm":
            return rm(rng.choice(paths))
        return cp(rng.choice(paths), rng.choice(paths))
    if rng.random() < 0.5:
        return seq(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    return ite(
        _random_pred(rng),
        _random_expr(rng, depth - 1),
        _random_expr(rng, depth - 1),
    )


def _random_pred(rng):
    paths = ["/a", "/a/b", "/f"]
    p = Path.of(rng.choice(paths))
    base = rng.choice([none_(p), file_(p), dir_(p), emptydir_(p)])
    if rng.random() < 0.3:
        return pnot(base)
    return base


class TestEncoderPropertyBased:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_random_exprs_random_states(self, seed):
        rng = random.Random(seed)
        expr = _random_expr(rng, depth=3)
        domains = PathDomains.for_exprs([expr])
        for _ in range(5):
            fs = _random_fs(rng, domains)
            _symbolic_agrees_with_concrete(expr, fs)


def _random_fs(rng, domains):
    entries = {}
    for p in sorted(domains.paths):
        roll = rng.random()
        if roll < 0.35:
            continue
        parent = p.parent()
        if not parent.is_root and not (
            parent in entries and entries[parent] is DIR
        ):
            continue  # keep it well-formed
        if roll < 0.7:
            entries[p] = DIR
        else:
            entries[p] = FileContent(rng.choice(sorted(domains.contents(p))))
    return FileSystem(entries)


class TestSatQueries:
    def test_emptydir_vs_dir_inequivalence_found(self):
        """The paper's §4.2 completeness example: the fresh witness
        child makes the SAT query find the inequality."""
        p = Path.of("/a")
        e1 = ite(emptydir_(p), ID, ERR)
        e2 = ite(dir_(p), ID, ERR)
        bank = TermBank()
        domains = PathDomains.for_exprs([e1, e2])
        init = initial_state(bank, domains)
        s1 = apply_expr(bank, init, e1)
        s2 = apply_expr(bank, init, e2)
        goal = bank.and_(
            initial_constraints(bank, domains),
            states_differ(bank, s1, s2, domains.paths),
        )
        result = check_sat(bank, goal)
        assert result.sat
        witness = decode_filesystem(domains, result.named_model)
        # The witness must demonstrate the difference concretely.
        assert eval_expr(e1, witness) != eval_expr(e2, witness)

    def test_equivalent_expressions_unsat(self):
        p = Path.of("/a")
        e1 = seq(mkdir(p), ite(dir_(p), ID, ERR))
        e2 = mkdir(p)
        bank = TermBank()
        domains = PathDomains.for_exprs([e1, e2])
        init = initial_state(bank, domains)
        s1 = apply_expr(bank, init, e1)
        s2 = apply_expr(bank, init, e2)
        goal = bank.and_(
            initial_constraints(bank, domains),
            states_differ(bank, s1, s2, domains.paths),
        )
        assert not check_sat(bank, goal).sat

    def test_creat_different_content_differs(self):
        e1 = creat("/f", "one")
        e2 = creat("/f", "two")
        bank = TermBank()
        domains = PathDomains.for_exprs([e1, e2])
        init = initial_state(bank, domains)
        s1 = apply_expr(bank, init, e1)
        s2 = apply_expr(bank, init, e2)
        goal = bank.and_(
            initial_constraints(bank, domains),
            states_differ(bank, s1, s2, domains.paths),
        )
        result = check_sat(bank, goal)
        assert result.sat
        witness = decode_filesystem(domains, result.named_model)
        assert eval_expr(e1, witness) != eval_expr(e2, witness)

    def test_write_vs_skip_needs_generic_content(self):
        """creat(f, x) when absent vs id: differs when f exists with
        content ≠ x — requires the ω generic contents."""
        p = Path.of("/f")
        e1 = ite(none_(p), creat(p, "x"), ID)
        e2 = ite(none_(p), creat(p, "x"), seq(rm(p), creat(p, "x")))
        bank = TermBank()
        domains = PathDomains.for_exprs([e1, e2])
        init = initial_state(bank, domains)
        s1 = apply_expr(bank, init, e1)
        s2 = apply_expr(bank, init, e2)
        goal = bank.and_(
            initial_constraints(bank, domains),
            states_differ(bank, s1, s2, domains.paths),
        )
        result = check_sat(bank, goal)
        assert result.sat
        witness = decode_filesystem(domains, result.named_model)
        assert eval_expr(e1, witness) != eval_expr(e2, witness)


class TestContentDomains:
    def test_tested_literal_flows_back_along_a_cp_chain(self):
        """filecontains?(c, x) after cp a b; cp b c: every path on the
        chain may initially hold x, so each domain must have it."""
        a, b, c = Path.of("/a"), Path.of("/b"), Path.of("/c")
        e = seq(cp(a, b), cp(b, c), ite(file_with(c, "x"), ERR, ID))
        domains = PathDomains.for_exprs([e])
        for p in (a, b, c):
            assert "x" in domains.contents(p)

    def test_created_literal_does_not_flow_back(self):
        """Only tested literals flow backwards; a literal written at
        the destination stays out of the source's domain."""
        a, b = Path.of("/a"), Path.of("/b")
        e = seq(creat(b, "y"), rm(b), cp(a, b))
        domains = PathDomains.for_exprs([e])
        assert "y" in domains.contents(b)
        assert "y" not in domains.contents(a)
