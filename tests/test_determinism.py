"""Tests for the determinacy analysis (§4) and its optimizations.

Includes the paper's running examples at the resource level and the
key meta-property: every combination of optimizations (elimination,
pruning, commutativity) yields the same verdict.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    DeterminismOptions,
    check_determinism,
)
from repro.digraph import DiGraph
from repro.errors import AnalysisBudgetExceeded
from repro.fs import (
    ERR,
    ERROR,
    ID,
    FileSystem,
    Path,
    creat,
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


def build_graph(programs, edges=()):
    """programs: dict name -> expr; edges: (prerequisite, dependent)."""
    g = DiGraph()
    g.add_nodes_from(programs)
    g.add_edges_from(edges)
    return g, programs


def compile_all(resources, edges=()):
    compiler = ResourceCompiler()
    programs = {
        str(r.ref): compiler.compile(r) for r in resources
    }
    return build_graph(programs, edges)


def set_file(path, content):
    """Overwrite-style write (like a file resource): the last writer
    wins, so two of these to one path are genuinely non-deterministic
    (a bare creat pair just errors in both orders)."""
    p = Path.of(path)
    return ite(
        file_(p),
        seq(rm(p), creat(p, content)),
        ite(IsNone_pred(p), creat(p, content), ERR),
    )


def IsNone_pred(p):
    from repro.fs import none_

    return none_(p)


class TestBasicVerdicts:
    def test_empty_graph_deterministic(self):
        g, p = build_graph({})
        assert check_determinism(g, p).deterministic

    def test_single_resource_deterministic(self):
        g, p = build_graph({"a": creat("/f", "x")})
        assert check_determinism(g, p).deterministic

    def test_two_conflicting_writes_nondeterministic(self):
        g, p = build_graph(
            {"a": set_file("/f", "x"), "b": set_file("/f", "y")}
        )
        result = check_determinism(g, p)
        assert not result.deterministic
        assert result.witness_fs is not None
        assert result.witness_orders is not None

    def test_two_bare_creats_always_error_deterministically(self):
        """creat has a strict not-exists precondition, so a pair of
        bare creats errors in both orders — deterministic."""
        g, p = build_graph(
            {"a": creat("/f", "x"), "b": creat("/f", "y")}
        )
        assert check_determinism(g, p).deterministic

    def test_ordering_edge_restores_determinism(self):
        g, p = build_graph(
            {"a": creat("/f", "x"), "b": seq(rm("/f"), creat("/f", "y"))},
            edges=[("a", "b")],
        )
        assert check_determinism(g, p).deterministic

    def test_disjoint_resources_deterministic(self):
        g, p = build_graph(
            {"a": creat("/f", "x"), "b": creat("/g", "y"), "c": mkdir("/d")}
        )
        assert check_determinism(g, p).deterministic

    def test_error_order_dependence_detected(self):
        """One order errors, the other succeeds: non-deterministic."""
        g, p = build_graph(
            {"dir": mkdir("/a"), "file": creat("/a/f", "x")}
        )
        result = check_determinism(g, p)
        assert not result.deterministic

    def test_witness_is_confirmed_concretely(self):
        g, p = build_graph(
            {"a": set_file("/f", "x"), "b": set_file("/f", "y")}
        )
        result = check_determinism(g, p)
        order1, order2 = result.witness_orders
        e1 = seq(*[p[n] for n in order1])
        e2 = seq(*[p[n] for n in order2])
        assert eval_expr(e1, result.witness_fs) != eval_expr(
            e2, result.witness_fs
        )

    def test_always_error_is_deterministic(self):
        """Determinism permits predictable failure (Definition 1)."""
        g, p = build_graph({"a": ERR, "b": ERR})
        assert check_determinism(g, p).deterministic


class TestSatProvesDeterminism:
    def test_equal_writes_by_different_programs_need_the_solver(self):
        """Two unordered resources set /f to "x", one testing the
        content first and the other testing absence first.  The orders
        leave structurally different final states, so only the SAT
        backend can prove them equal: this keeps a deterministic
        verdict that needs a query under test."""
        p = Path.of("/f")
        write = seq(rm(p), creat(p, "x"))
        content_first = ite(
            file_with(p, "x"),
            ID,
            ite(file_(p), write, ite(none_(p), creat(p, "x"), ERR)),
        )
        absence_first = ite(
            none_(p),
            creat(p, "x"),
            ite(file_(p), ite(file_with(p, "x"), ID, write), ERR),
        )
        g, programs = build_graph(
            {"content_first": content_first, "absence_first": absence_first}
        )
        result = check_determinism(g, programs)
        assert result.deterministic
        assert result.stats.distinct_finals == 2
        assert result.stats.sat_queries >= 1


class TestPaperExamples:
    def test_fig3a_package_file_missing_dep(self):
        """Apache package + site config without an edge: error depends
        on the order (package creates the parent directory)."""
        g, p = compile_all(
            [
                Resource("package", "apache2", {}),
                Resource(
                    "file",
                    "/etc/apache2/sites-available/000-default.conf",
                    {"content": "my site"},
                ),
            ]
        )
        result = check_determinism(g, p)
        assert not result.deterministic

    def test_fig3a_fixed_with_dependency(self):
        g, p = compile_all(
            [
                Resource("package", "apache2", {}),
                Resource(
                    "file",
                    "/etc/apache2/sites-available/000-default.conf",
                    {"content": "my site"},
                ),
            ],
            edges=[
                (
                    "Package['apache2']",
                    "File['/etc/apache2/sites-available/000-default.conf']",
                )
            ],
        )
        assert check_determinism(g, p).deterministic

    def test_independent_packages_deterministic(self):
        """cpp/ocaml-style toolchains without false dependencies."""
        g, p = compile_all(
            [
                Resource("package", "m4", {}),
                Resource("package", "make", {}),
                Resource("package", "gcc", {}),
                Resource("package", "ocaml", {}),
            ]
        )
        result = check_determinism(g, p)
        assert result.deterministic
        # Commutativity + elimination keep exploration trivial.
        assert result.stats.branches_explored <= 4

    def test_fig3c_silent_failure_detected(self):
        """remove-perl + install-go: two distinct success states."""
        g, p = compile_all(
            [
                Resource("package", "perl", {"ensure": "absent"}),
                Resource("package", "golang-go", {"ensure": "present"}),
            ]
        )
        result = check_determinism(g, p)
        assert not result.deterministic
        # The silent-failure aspect: from the empty machine both orders
        # *succeed* yet reach different states.
        remove_perl = p["Package['perl']"]
        install_go = p["Package['golang-go']"]
        empty = FileSystem.empty()
        out1 = eval_expr(seq(remove_perl, install_go), empty)
        out2 = eval_expr(seq(install_go, remove_perl), empty)
        assert out1 is not ERROR and out2 is not ERROR
        assert out1 != out2

    def test_user_sshkey_missing_dep(self):
        """The §6 benchmark bug class: ssh key without user edge."""
        g, p = compile_all(
            [
                Resource("user", "carol", {"managehome": True}),
                Resource(
                    "ssh_authorized_key",
                    "carol@laptop",
                    {"user": "carol", "key": "AAAA"},
                ),
            ]
        )
        assert not check_determinism(g, p).deterministic

    def test_user_sshkey_with_dep(self):
        g, p = compile_all(
            [
                Resource("user", "carol", {"managehome": True}),
                Resource(
                    "ssh_authorized_key",
                    "carol@laptop",
                    {"user": "carol", "key": "AAAA"},
                ),
            ],
            edges=[("User['carol']", "Ssh_authorized_key['carol@laptop']")],
        )
        assert check_determinism(g, p).deterministic


class TestOptimizationConsistency:
    """The §4.5 claim: each technique preserves (in-)equivalences, so
    verdicts must be identical with any subset of optimizations."""

    CONFIGS = [
        DeterminismOptions(
            use_commutativity=c,
            use_pruning=p,
            use_elimination=e,
            use_simplification=s,
        )
        for c, p, e, s in itertools.product([False, True], repeat=4)
    ]

    def _verdicts(self, g, programs):
        out = set()
        for options in self.CONFIGS:
            result = check_determinism(g, programs, options)
            out.add(result.deterministic)
        return out

    def test_fig3a_consistent(self):
        g, p = compile_all(
            [
                Resource("package", "nginx", {}),
                Resource(
                    "file",
                    "/etc/nginx/nginx.conf",
                    {"content": "worker_processes 4;"},
                ),
            ]
        )
        assert self._verdicts(g, p) == {False}

    def test_disjoint_consistent(self):
        g, p = build_graph(
            {"a": creat("/f", "x"), "b": creat("/g", "y")}
        )
        assert self._verdicts(g, p) == {True}

    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=25, deadline=None)
    def test_random_small_graphs_consistent(self, seed):
        rng = random.Random(seed)
        paths = ["/a", "/a/f", "/b"]
        n = rng.randint(2, 4)
        programs = {}
        for i in range(n):
            kind = rng.randrange(4)
            target = rng.choice(paths)
            if kind == 0:
                programs[f"r{i}"] = creat(target, rng.choice("xy"))
            elif kind == 1:
                programs[f"r{i}"] = ite(
                    file_(Path.of(target)), ID, mkdir(target)
                )
            elif kind == 2:
                programs[f"r{i}"] = ite(
                    file_(Path.of(target)), rm(target), ID
                )
            else:
                programs[f"r{i}"] = ID
        edges = []
        names = list(programs)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if rng.random() < 0.3:
                    edges.append((names[i], names[j]))
        g, p = build_graph(programs, edges)
        verdicts = self._verdicts(g, p)
        assert len(verdicts) == 1, f"inconsistent verdicts for {programs}"


class TestBudget:
    def test_branch_budget_raises(self):
        programs = {
            f"r{i}": creat("/f", str(i)) for i in range(6)
        }
        g, p = build_graph(programs)
        options = DeterminismOptions(
            max_branches=10, use_commutativity=True, use_pruning=False,
            use_elimination=False,
        )
        with pytest.raises(AnalysisBudgetExceeded):
            check_determinism(g, p, options)

    def test_stats_populated(self):
        g, p = compile_all(
            [
                Resource("package", "ntp", {}),
                Resource("file", "/etc/ntp.conf", {"content": "servers"}),
            ],
            edges=[("Package['ntp']", "File['/etc/ntp.conf']")],
        )
        result = check_determinism(g, p)
        assert result.stats.resources_total == 2
        assert result.stats.total_seconds > 0
