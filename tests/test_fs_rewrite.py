"""Tests for the FS simplifier: simplify(e) ≡ e, always."""

import random

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
    rm,
    seq,
)
from repro.analysis.idempotence import check_idempotence_expr
from repro.fs.filesystem import DIR, FileContent
from repro.fs.rewrite import proves_idempotent, simplify
from repro.fs.syntax import expr_size
from repro.resources import Resource, ResourceCompiler


class TestFolding:
    def test_mkdir_then_dir_check_folds(self):
        p = Path.of("/d")
        e = seq(mkdir(p), ite(dir_(p), creat("/d/f", "x"), ERR))
        out = simplify(e)
        assert out == seq(mkdir(p), creat("/d/f", "x"))

    def test_creat_then_filewith_folds(self):
        p = Path.of("/f")
        e = seq(creat(p, "x"), ite(file_with(p, "x"), ID, ERR))
        assert simplify(e) == creat(p, "x")

    def test_double_mkdir_is_error(self):
        e = seq(mkdir("/d"), mkdir("/d"))
        assert simplify(e) == ERR

    def test_rm_after_rm_is_error(self):
        e = seq(rm("/f"), rm("/f"))
        assert simplify(e) == ERR

    def test_guard_refinement_in_branch(self):
        p = Path.of("/f")
        # Inside the then-branch, file?(p) is known true.
        e = ite(file_(p), ite(file_(p), rm(p), ERR), ID)
        out = simplify(e)
        assert out == ite(file_(p), rm(p), ID)

    def test_package_style_program_shrinks(self):
        compiler = ResourceCompiler()
        e = compiler.compile(Resource("package", "apache2", {}))
        out = simplify(e)
        assert expr_size(out) <= expr_size(e)

    def test_join_keeps_a_file_of_unknown_content(self):
        p = Path.of("/p")
        first = ite(file_(p), ID, creat(p, "x"))
        # Both branches of the first if leave a file at p, so the
        # second guard folds to TRUE.
        e = seq(first, ite(file_(p), ID, rm(p)))
        assert simplify(e) == first

    def test_error_branch_knowledge_skipped(self):
        p = Path.of("/f")
        e = seq(
            ite(none_(p), ERR, ID),  # survives only if p exists
            ite(none_(p), creat(p, "x"), ID),
        )
        out = simplify(e)
        # After the first guard, p is known to exist: the second
        # conditional folds to id.
        assert out == ite(none_(p), ERR, ID)


def _random_expr(rng, depth):
    paths = ["/p", "/p/c", "/q"]
    if depth == 0 or rng.random() < 0.4:
        roll = rng.randrange(6)
        p = rng.choice(paths)
        if roll == 0:
            return mkdir(p)
        if roll == 1:
            return creat(p, rng.choice("xy"))
        if roll == 2:
            return rm(p)
        if roll == 3:
            return cp(p, rng.choice(paths))
        if roll == 4:
            return ID
        return ERR
    if rng.random() < 0.5:
        return seq(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    p = Path.of(rng.choice(paths))
    pred = rng.choice(
        [none_(p), file_(p), dir_(p), emptydir_(p), file_with(p, "x")]
    )
    return ite(
        pred, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
    )


def _states():
    from itertools import product

    paths = [Path.of("/p"), Path.of("/p/c"), Path.of("/q")]
    options = [None, DIR, FileContent("x"), FileContent("z")]
    for combo in product(options, repeat=3):
        entries = {p: c for p, c in zip(paths, combo) if c is not None}
        fs = FileSystem(entries)
        if fs.is_well_formed():
            yield fs


class TestSimplifyPreservesSemantics:
    @given(st.integers(min_value=0, max_value=80_000))
    @settings(max_examples=120, deadline=None)
    def test_equivalent_on_all_small_states(self, seed):
        rng = random.Random(seed)
        e = _random_expr(rng, depth=4)
        out = simplify(e)
        for fs in _states():
            assert eval_expr(e, fs) == eval_expr(out, fs), (
                f"simplify changed semantics\ne={e}\nout={out}\nfs={fs!r}"
            )

    @given(st.integers(min_value=0, max_value=80_000))
    @settings(max_examples=120, deadline=None)
    def test_idempotence_proofs_hold_concretely(self, seed):
        """A rewriting proof of ``e; e ≡ e``, and any idempotent
        verdict, hold on every small state."""
        rng = random.Random(seed)
        e = _random_expr(rng, depth=4)
        twice = seq(e, e)
        if proves_idempotent(e) or check_idempotence_expr(e).idempotent:
            for fs in _states():
                assert eval_expr(twice, fs) == eval_expr(e, fs), (
                    f"e; e differs from e\ne={e}\nfs={fs!r}"
                )

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalent_by_smt(self, seed):
        """Cross-check with the complete SAT-backed equivalence."""
        from repro.analysis import check_equivalence

        rng = random.Random(seed * 7919)
        e = _random_expr(rng, depth=3)
        out = simplify(e)
        assert check_equivalence(
            e, out, well_formed_initial=False
        ).equivalent

    def test_resource_models_survive_simplify(self):
        from repro.analysis import check_equivalence

        compiler = ResourceCompiler()
        for resource in [
            Resource("file", "/etc/motd", {"content": "hi"}),
            Resource("user", "carol", {"managehome": True}),
            Resource("service", "svc", {"ensure": "running"}),
        ]:
            e = compiler.compile(resource)
            assert check_equivalence(e, simplify(e)).equivalent


def _two_pass_proof(e):
    """The definition :func:`proves_idempotent` decides in one pass."""
    return simplify(seq(e, e)) == simplify(e)


def _corpus_names():
    from repro.corpus import BENCHMARK_NAMES, FIXED_VARIANTS

    return BENCHMARK_NAMES + sorted(FIXED_VARIANTS)


class TestOnePassIdempotenceProof:
    @given(st.integers(min_value=0, max_value=80_000))
    @settings(max_examples=200, deadline=None)
    def test_matches_simplify_of_the_doubled_program(self, seed):
        e = _random_expr(random.Random(seed), depth=4)
        assert proves_idempotent(e) == _two_pass_proof(e), f"e={e}"

    def test_trivial_programs(self):
        assert proves_idempotent(ID) and _two_pass_proof(ID)
        assert proves_idempotent(ERR) and _two_pass_proof(ERR)
        f = Path.of("/f")
        assert not proves_idempotent(creat(f, "x"))
        assert proves_idempotent(ite(file_(f), ID, creat(f, "x")))

    @pytest.mark.parametrize("name", _corpus_names())
    def test_matches_on_corpus_programs(self, name):
        """Every corpus resource program, and the manifest's sequenced
        program, decide the same either way — and all are proved."""
        from repro import Rehearsal
        from repro.corpus import load_source
        from repro.digraph import topological_sort

        graph, programs = Rehearsal().compile(load_source(name))
        for node, e in programs.items():
            assert proves_idempotent(e) == _two_pass_proof(e), node
            assert proves_idempotent(e), f"{node} not proved"
        whole = seq(*[programs[n] for n in topological_sort(graph)])
        assert proves_idempotent(whole) == _two_pass_proof(whole)
        assert proves_idempotent(whole)
