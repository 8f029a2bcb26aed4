"""Tests for the snapshot package semantics extension.

Puppet queries the package manager once per run; the snapshot mode
materializes that behaviour in FS (see repro/resources/snapshot.py)
and is what reproduces the paper's Fig. 3c non-idempotence claim
exactly.
"""

import pytest

from repro import Rehearsal
from repro.fs import ERROR, FileSystem, eval_expr, seq
from repro.resources import ModelContext
from repro.resources.package import marker_path
from repro.resources.snapshot import (
    SNAPSHOT_EPILOGUE_NODE,
    SNAPSHOT_PRELUDE_NODE,
)

FIG_3C = """
package{'golang-go': ensure => present }
package{'perl': ensure => absent }
"""

FIG_3C_ORDERED = FIG_3C + """
Package['perl'] -> Package['golang-go']
"""


@pytest.fixture()
def snapshot_tool():
    return Rehearsal(context=ModelContext(package_semantics="snapshot"))


@pytest.fixture()
def direct_tool():
    return Rehearsal()


class TestPreludeInjection:
    def test_prelude_node_added(self, snapshot_tool):
        graph, programs = snapshot_tool.compile(FIG_3C)
        assert SNAPSHOT_PRELUDE_NODE in graph.nodes
        assert SNAPSHOT_PRELUDE_NODE in programs
        # Every package depends on the prelude.
        assert graph.has_edge(SNAPSHOT_PRELUDE_NODE, "Package['golang-go']")
        assert graph.has_edge(SNAPSHOT_PRELUDE_NODE, "Package['perl']")

    def test_no_prelude_without_packages(self, snapshot_tool):
        graph, _ = snapshot_tool.compile("file{'/f': content => 'x' }")
        assert SNAPSHOT_PRELUDE_NODE not in graph.nodes

    def test_direct_mode_unchanged(self, direct_tool):
        graph, _ = direct_tool.compile(FIG_3C)
        assert SNAPSHOT_PRELUDE_NODE not in graph.nodes

    def test_with_prelude_leaves_the_frontend_unchanged(self, snapshot_tool):
        """The prelude goes into copies, so the frontend (what lint
        sees) keeps the graph as the manifest declares it."""
        front = snapshot_tool.frontend(FIG_3C)
        nodes = list(front.graph.nodes)
        edges = list(front.graph.edges)
        programs = dict(front.programs)
        graph, compiled = snapshot_tool.with_prelude(front)
        added = {SNAPSHOT_PRELUDE_NODE, SNAPSHOT_EPILOGUE_NODE}
        assert added <= set(graph.nodes) and added <= set(compiled)
        assert graph.number_of_nodes() == len(nodes) + 2
        assert list(front.graph.nodes) == nodes
        assert list(front.graph.edges) == edges
        assert front.programs == programs


class TestFig3cUnderSnapshot:
    def test_ordered_fig3c_is_deterministic(self, snapshot_tool):
        result = snapshot_tool.check_determinism(FIG_3C_ORDERED)
        assert result.deterministic

    def test_ordered_fig3c_is_not_idempotent(self, snapshot_tool):
        """The paper's §2 claim, reproducible only under snapshot
        semantics: run 1 installs both (go pulls perl back in); run 2
        snapshots 'both installed', removes perl (cascading to go) and
        then *skips* the go install because the snapshot says it was
        installed — the manifest oscillates.  The witness reproduces
        the bug: from it, one run and two runs end in different
        states."""
        result = snapshot_tool.check_idempotence(FIG_3C_ORDERED)
        assert not result.idempotent
        from repro.digraph import topological_sort

        graph, programs = snapshot_tool.compile(FIG_3C_ORDERED)
        run = seq(*[programs[n] for n in topological_sort(graph)])
        once = eval_expr(run, result.witness_fs)
        twice = eval_expr(run, once)
        assert once is not ERROR
        assert twice is not ERROR
        assert once != twice

    def test_ordered_fig3c_idempotent_under_direct(self, direct_tool):
        """Under execution-time checks the re-install happens in the
        same run and the manifest converges — documenting why snapshot
        mode exists."""
        assert direct_tool.check_determinism(FIG_3C_ORDERED).deterministic
        assert direct_tool.check_idempotence(FIG_3C_ORDERED).idempotent

    def test_oscillation_concretely(self, snapshot_tool):
        """Three consecutive runs from the empty machine: installed →
        removed → installed."""
        graph, programs = snapshot_tool.compile(FIG_3C_ORDERED)
        from repro.digraph import topological_sort

        order = topological_sort(graph)
        run = seq(*[programs[n] for n in order])
        s1 = eval_expr(run, FileSystem.empty())
        assert s1 is not ERROR
        assert s1.is_file(marker_path("golang-go"))
        assert s1.is_file(marker_path("perl"))
        s2 = eval_expr(run, s1)
        assert s2 is not ERROR
        assert not s2.exists(marker_path("golang-go"))
        assert not s2.exists(marker_path("perl"))
        s3 = eval_expr(run, s2)
        assert s3 is not ERROR
        assert s3.is_file(marker_path("golang-go"))


class TestSnapshotStillCatchesRealBugs:
    def test_fig3a_still_nondeterministic(self, snapshot_tool):
        manifest = """
        file {"/etc/apache2/sites-available/000-default.conf":
          content => "site",
        }
        package {"apache2": ensure => present }
        """
        assert not snapshot_tool.check_determinism(manifest).deterministic

    def test_simple_package_idempotent(self, snapshot_tool):
        manifest = "package{'vim': ensure => present }"
        assert snapshot_tool.check_determinism(manifest).deterministic
        assert snapshot_tool.check_idempotence(manifest).idempotent
