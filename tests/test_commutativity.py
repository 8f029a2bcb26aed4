"""Tests for the commutativity footprint analysis (§4.3, Fig. 9)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import exprs_commute, footprint
from repro.analysis.commutativity import Access, conflict_matrix
from repro.core.pipeline import Rehearsal
from repro.corpus import load_source
from repro.digraph import DiGraph, descendants
from repro.fs import (
    ERR,
    ID,
    FileSystem,
    Path,
    cp,
    creat,
    dir_,
    emptydir_,
    eval_expr,
    file_,
    ite,
    mkdir,
    none_,
    pnot,
    rm,
    seq,
)
from repro.fs.filesystem import DIR, FileContent
from repro.resources import Resource, ResourceCompiler, guarded_mkdir


class TestFootprint:
    def test_creat_reads_parent_writes_target(self):
        fp = footprint(creat("/a/f", "x"))
        assert Path.of("/a/f") in fp.writes
        assert Path.of("/a") in fp.reads

    def test_guarded_mkdir_is_dir_ensure(self):
        fp = footprint(guarded_mkdir(Path.of("/usr")))
        assert Path.of("/usr") in fp.dir_ensures
        assert not fp.writes

    def test_guarded_mkdir_chain_tree_order(self):
        e = seq(
            guarded_mkdir(Path.of("/usr")),
            guarded_mkdir(Path.of("/usr/bin")),
        )
        fp = footprint(e)
        assert fp.dir_ensures == {Path.of("/usr"), Path.of("/usr/bin")}

    def test_guarded_mkdir_out_of_order_is_write(self):
        """Creating /a/b before /a is not the D idiom (paper §4.3):
        both paths degrade to plain writes (the early fallback also
        reads /a externally, so its later guarded mkdir cannot be D)."""
        e = seq(
            guarded_mkdir(Path.of("/a/b")),
            guarded_mkdir(Path.of("/a")),
        )
        fp = footprint(e)
        assert Path.of("/a/b") in fp.writes
        assert Path.of("/a") in fp.writes

    def test_unguarded_mkdir_is_write(self):
        fp = footprint(mkdir("/usr"))
        assert Path.of("/usr") in fp.writes

    def test_rm_records_children_read(self):
        fp = footprint(rm("/d"))
        assert Path.of("/d") in fp.writes
        assert Path.of("/d") in fp.children_reads

    def test_emptydir_pred_records_children_read(self):
        fp = footprint(ite(emptydir_(Path.of("/d")), ID, ERR))
        assert Path.of("/d") in fp.children_reads

    def test_write_then_guard_stays_write(self):
        e = seq(mkdir("/a"), guarded_mkdir(Path.of("/a")))
        fp = footprint(e)
        assert Path.of("/a") in fp.writes
        assert Path.of("/a") not in fp.dir_ensures

    def test_branch_join(self):
        e = ite(file_(Path.of("/q")), creat("/a", "x"), ID)
        fp = footprint(e)
        assert Path.of("/q") in fp.reads
        assert Path.of("/a") in fp.writes


class TestCommute:
    def test_disjoint_writes_commute(self):
        assert exprs_commute(creat("/a", "x"), creat("/b", "y"))

    def test_same_write_conflicts(self):
        assert not exprs_commute(creat("/a", "x"), creat("/a", "y"))

    def test_read_write_conflicts(self):
        e1 = ite(file_(Path.of("/a")), ID, ERR)
        e2 = creat("/a", "x")
        assert not exprs_commute(e1, e2)

    def test_read_read_commutes(self):
        e1 = ite(file_(Path.of("/a")), ID, ERR)
        e2 = ite(none_(Path.of("/a")), ID, ERR)
        assert exprs_commute(e1, e2)

    def test_shared_directory_creation_commutes(self):
        """The central §4.3 observation: packages sharing /usr-style
        trees must be provably commuting."""
        pkg1 = seq(
            guarded_mkdir(Path.of("/usr")),
            guarded_mkdir(Path.of("/usr/bin")),
            creat("/usr/bin/gcc", "gcc"),
        )
        pkg2 = seq(
            guarded_mkdir(Path.of("/usr")),
            guarded_mkdir(Path.of("/usr/bin")),
            creat("/usr/bin/ocaml", "ocaml"),
        )
        assert exprs_commute(pkg1, pkg2)

    def test_dir_ensure_vs_plain_write_conflicts(self):
        e1 = guarded_mkdir(Path.of("/a"))
        e2 = mkdir("/a")
        assert not exprs_commute(e1, e2)

    def test_rm_vs_descendant_write_conflicts(self):
        e1 = rm("/d")
        e2 = creat("/d/f", "x")
        assert not exprs_commute(e1, e2)

    def test_compiled_packages_commute(self):
        compiler = ResourceCompiler()
        p1 = compiler.compile(Resource("package", "gcc", {}))
        p2 = compiler.compile(Resource("package", "ocaml", {}))
        assert exprs_commute(p1, p2)

    def test_package_vs_its_config_file_conflicts(self):
        compiler = ResourceCompiler()
        pkg = compiler.compile(Resource("package", "apache2", {}))
        conf = compiler.compile(
            Resource(
                "file",
                "/etc/apache2/sites-available/000-default.conf",
                {"content": "site config"},
            )
        )
        assert not exprs_commute(pkg, conf)


def _random_atomic(rng, paths):
    kind = rng.choice(["mkdir", "creat", "rm", "guard", "check"])
    p = Path.of(rng.choice(paths))
    if kind == "mkdir":
        return mkdir(p)
    if kind == "creat":
        return creat(p, rng.choice("xy"))
    if kind == "rm":
        return rm(p)
    if kind == "guard":
        return guarded_mkdir(p)
    return ite(
        rng.choice([file_(p), dir_(p), none_(p)]),
        ID,
        ERR,
    )


def _random_expr(rng, paths, size):
    parts = [_random_atomic(rng, paths) for _ in range(size)]
    return seq(*parts)


def _enumerate_states(paths, contents=("x", "y")):
    from itertools import product

    paths = sorted(Path.of(p) for p in paths)
    options = [None, DIR] + [FileContent(c) for c in contents]
    for combo in product(options, repeat=len(paths)):
        entries = {p: c for p, c in zip(paths, combo) if c is not None}
        fs = FileSystem(entries)
        if fs.is_well_formed():
            yield fs


class TestLemma4Soundness:
    """If the footprint check says two expressions commute, they must
    commute semantically — validated exhaustively on small states."""

    PATHS = ["/a", "/a/b", "/c"]

    @given(st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=100, deadline=None)
    def test_syntactic_commute_implies_semantic(self, seed):
        rng = random.Random(seed)
        e1 = _random_expr(rng, self.PATHS, rng.randint(1, 3))
        e2 = _random_expr(rng, self.PATHS, rng.randint(1, 3))
        if not exprs_commute(e1, e2):
            return  # the check is allowed to be conservative
        for fs in _enumerate_states(self.PATHS):
            left = eval_expr(seq(e1, e2), fs)
            right = eval_expr(seq(e2, e1), fs)
            assert left == right, (
                f"claimed commuting but diverge on {fs!r}:\n"
                f"e1={e1}\ne2={e2}"
            )


ETC = Path.of("/etc")


def settled_graph(programs, edges):
    g = DiGraph()
    g.add_nodes_from(programs)
    g.add_edges_from(edges)
    return conflict_matrix(g, {n: footprint(e) for n, e in programs.items()})


class TestSettledDirectories:
    """``conflict_matrix`` drops conflicts on a directory an ancestor
    already ensured and nothing writes."""

    #: reads /etc (as the parent of its file) and ensures nothing.
    READER = creat("/etc/key", "k")
    #: ensures /etc the package way, then writes its own file.
    PACKAGE = seq(guarded_mkdir(ETC), creat("/etc/pkg.conf", "p"))

    def test_ensured_joins_seq_by_union_and_if_by_intersection(self):
        usr = Path.of("/usr")
        both = seq(guarded_mkdir(ETC), guarded_mkdir(usr))
        assert footprint(both).ensured == {ETC, usr}
        one_arm = ite(file_(Path.of("/q")), guarded_mkdir(ETC), ID)
        assert footprint(one_arm).ensured == frozenset()
        err_arm = ite(file_(ETC), ERR, guarded_mkdir(ETC))
        assert footprint(err_arm).ensured == {ETC}
        assert footprint(mkdir("/etc")).ensured == frozenset()

    def test_irc_fixed_pairs_commute(self):
        graph, programs = Rehearsal().compile(load_source("irc-fixed"))
        prints = {n: footprint(e) for n, e in programs.items()}
        key = "Ssh_authorized_key['ircops@admin']"
        package = "Package['ngircd']"
        assert not exprs_commute(programs[key], programs[package])
        matrix = conflict_matrix(graph, prints)
        reach = {n: descendants(graph, n) | {n} for n in graph.nodes}
        unordered = [
            (a, b)
            for a in graph.nodes
            for b in graph.nodes
            if b not in reach[a] and a not in reach[b]
        ]
        assert (key, package) in unordered
        for a, b in unordered:
            assert not matrix[a][b], (a, b)

    def test_settled_by_a_common_ancestor(self):
        matrix = settled_graph(
            {"ensure": guarded_mkdir(ETC), "a": self.READER, "b": self.PACKAGE},
            [("ensure", "a")],
        )
        assert matrix["a"]["b"] == set()

    def test_ensure_in_one_if_arm_stays_conflicting(self):
        ensure = ite(file_(Path.of("/q")), guarded_mkdir(ETC), ID)
        matrix = settled_graph(
            {"ensure": ensure, "a": self.READER, "b": self.PACKAGE},
            [("ensure", "a"), ("ensure", "b")],
        )
        assert matrix["a"]["b"] == {ETC}

    def test_a_writer_anywhere_keeps_the_conflict(self):
        matrix = settled_graph(
            {
                "ensure": guarded_mkdir(ETC),
                "a": self.READER,
                "b": self.PACKAGE,
                "wipe": ite(emptydir_(ETC), rm("/etc"), ID),
            },
            [("ensure", "a"), ("ensure", "b"), ("a", "wipe"), ("b", "wipe")],
        )
        assert matrix["a"]["b"] == {ETC}

    def test_ensurer_ancestor_of_neither_keeps_the_conflict(self):
        matrix = settled_graph(
            {"ensure": guarded_mkdir(ETC), "a": self.READER, "b": self.PACKAGE},
            [("a", "ensure")],
        )
        assert matrix["a"]["b"] == {ETC}

    def test_children_reads_are_kept(self):
        """A settled directory's children can still change: emptiness
        of /etc observes the package's new file."""
        checker = ite(emptydir_(ETC), creat("/flag", "empty"), ID)
        matrix = settled_graph(
            {"ensure": guarded_mkdir(ETC), "a": checker, "b": self.PACKAGE},
            [("ensure", "a"), ("ensure", "b")],
        )
        assert matrix["a"]["b"] == {Path.of("/etc/pkg.conf")}
