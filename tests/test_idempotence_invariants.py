"""Tests for the §5 checks: equivalence, idempotence, invariants."""

import pytest

from repro.analysis import (
    check_commutes_semantically,
    check_equivalence,
    check_idempotence,
    check_idempotence_expr,
    check_invariant,
    ensures_absent,
    ensures_directory,
    ensures_file,
    ensures_present,
)
from repro.digraph import DiGraph
from repro.fs import (
    ERR,
    ERROR,
    ID,
    FileSystem,
    Path,
    cp,
    creat,
    dir_,
    eval_expr,
    file_,
    file_with,
    ite,
    mkdir,
    none_,
    rm,
    seq,
)
from repro.resources import Resource, ResourceCompiler


class TestEquivalence:
    def test_id_equivalences(self):
        assert check_equivalence(ID, seq(ID, ID)).equivalent

    def test_mkdir_with_redundant_check(self):
        p = Path.of("/d")
        e1 = seq(mkdir(p), ite(dir_(p), ID, ERR))
        assert check_equivalence(e1, mkdir(p)).equivalent

    def test_creat_contents_matter(self):
        res = check_equivalence(creat("/f", "a"), creat("/f", "b"))
        assert not res.equivalent
        assert eval_expr(creat("/f", "a"), res.witness_fs) != eval_expr(
            creat("/f", "b"), res.witness_fs
        )

    def test_tested_content_reaches_copy_source(self):
        """A literal tested after a cp can be the source's initial
        content, so the source's domain must hold it."""
        e1 = seq(cp("/a", "/b"), ite(file_with(Path.of("/b"), "x"), ERR, ID))
        e2 = cp("/a", "/b")
        res = check_equivalence(e1, e2)
        assert not res.equivalent
        assert eval_expr(e1, res.witness_fs) != eval_expr(
            e2, res.witness_fs
        )

    def test_semantic_commute(self):
        assert check_commutes_semantically(
            creat("/f", "x"), creat("/g", "y")
        ).equivalent

    def test_semantic_non_commute(self):
        res = check_commutes_semantically(mkdir("/a"), creat("/a/f", "x"))
        assert not res.equivalent

    def test_same_definitive_write_both_orders(self):
        """Two idempotent file-sets of the same content commute even
        though the syntactic check cannot prove it (§3.3 ssh keys)."""
        def set_marker():
            p = Path.of("/m")
            return ite(
                file_with(p, "k"),
                ID,
                seq(ite(file_(p), rm(p), ID), creat(p, "k")),
            )

        assert check_commutes_semantically(set_marker(), set_marker())


class TestDeterminismOverCopiedContent:
    def test_race_on_copied_content_found(self):
        """Testing /b before or after the copy into it differs only
        when /a holds the tested literal."""
        from repro.analysis import check_determinism

        programs = {
            "copy": cp("/a", "/b"),
            "probe": ite(file_with(Path.of("/b"), "x"), creat("/c", "y"), ID),
        }
        g = DiGraph()
        g.add_nodes_from(programs)
        res = check_determinism(g, programs)
        assert not res.deterministic
        first, second = res.witness_orders
        e1 = seq(*[programs[n] for n in first])
        e2 = seq(*[programs[n] for n in second])
        assert eval_expr(e1, res.witness_fs) != eval_expr(e2, res.witness_fs)


class TestIdempotence:
    def test_guarded_mkdir_idempotent(self):
        from repro.resources import guarded_mkdir

        assert check_idempotence_expr(guarded_mkdir(Path.of("/d"))).idempotent

    def test_bare_mkdir_not_idempotent(self):
        res = check_idempotence_expr(mkdir("/d"))
        assert not res.idempotent
        # Witness: a state where one run succeeds but two runs error.
        w = res.witness_fs
        once = eval_expr(mkdir("/d"), w)
        twice = eval_expr(seq(mkdir("/d"), mkdir("/d")), w)
        assert once != twice

    def test_toggle_falls_back_to_the_exact_query(self):
        p = Path.of("/t")
        e = ite(file_(p), rm(p), creat(p, "x"))
        res = check_idempotence_expr(e)
        assert not res.idempotent
        assert res.sat_queries == 1
        assert res.witness_fs == check_equivalence(e, seq(e, e)).witness_fs

    def test_fig3d_copy_then_delete(self):
        """file{'/dst': source => '/src'} -> file{'/src': absent}:
        the second run always fails (paper Fig. 3d)."""
        compiler = ResourceCompiler()
        copy = compiler.compile(Resource("file", "/dst", {"source": "/src"}))
        delete = compiler.compile(Resource("file", "/src", {"ensure": "absent"}))
        e = seq(copy, delete)
        res = check_idempotence_expr(e)
        assert not res.idempotent

    def test_retest_of_copied_content_not_idempotent(self):
        """The first run copies x into /q; the second then takes the
        branch that copies /q onto itself, which errors."""
        q = Path.of("/q")
        e = ite(
            file_with(q, "x"),
            cp(q, q),
            seq(rm(q), cp("/p/c", q)),
        )
        res = check_idempotence_expr(e)
        assert not res.idempotent
        w = res.witness_fs
        assert eval_expr(seq(e, e), w) != eval_expr(e, w)

    def test_file_resource_idempotent(self):
        compiler = ResourceCompiler()
        e = compiler.compile(Resource("file", "/f", {"content": "x"}))
        assert check_idempotence_expr(e).idempotent

    def test_package_resource_idempotent(self):
        compiler = ResourceCompiler()
        e = compiler.compile(Resource("package", "m4", {}))
        assert check_idempotence_expr(e).idempotent

    def test_graph_level_idempotence(self):
        compiler = ResourceCompiler()
        programs = {
            "pkg": compiler.compile(Resource("package", "ntp", {})),
            "conf": compiler.compile(
                Resource("file", "/etc/ntp.conf", {"content": "pool x"})
            ),
        }
        g = DiGraph()
        g.add_nodes_from(programs)
        g.add_edge("pkg", "conf")
        assert check_idempotence(g, programs).idempotent


class TestInvariants:
    def test_creat_ensures_file(self):
        e = creat("/f", "x")
        assert check_invariant(e, ensures_file(Path.of("/f"), "x")).holds

    def test_overwritten_invariant_fails(self):
        """A later resource clobbers the declared file (§5)."""
        e = seq(
            creat("/f", "declared"),
            rm("/f"),
            creat("/f", "clobbered"),
        )
        res = check_invariant(e, ensures_file(Path.of("/f"), "declared"))
        assert not res.holds
        assert res.witness_fs is not None

    def test_mkdir_ensures_directory(self):
        assert check_invariant(mkdir("/d"), ensures_directory(Path.of("/d"))).holds

    def test_rm_ensures_absent(self):
        assert check_invariant(rm("/f"), ensures_absent(Path.of("/f"))).holds

    def test_untouched_path_not_ensured(self):
        e = creat("/f", "x")
        res = check_invariant(
            e,
            ensures_present(Path.of("/g")),
            extra_paths=(Path.of("/g"),),
        )
        assert not res.holds

    def test_fig3c_inconsistency_via_invariant(self):
        """Deterministic fix of Fig. 3c: perl removed before go is
        installed — but installing go reinstalls perl, so the manifest
        never achieves 'perl absent'. The invariant check rejects it."""
        from repro.resources.package import marker_path

        compiler = ResourceCompiler()
        remove_perl = compiler.compile(
            Resource("package", "perl", {"ensure": "absent"})
        )
        install_go = compiler.compile(
            Resource("package", "golang-go", {"ensure": "present"})
        )
        e = seq(remove_perl, install_go)  # the Package['perl'] -> edge
        res = check_invariant(e, ensures_absent(marker_path("perl")))
        assert not res.holds
