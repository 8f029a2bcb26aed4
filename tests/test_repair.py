"""Tests for the repair synthesizer (§9 future work: manifest repair)."""

import pytest

from repro import Rehearsal
from repro.analysis import check_determinism
from repro.analysis.repair import synthesize_repair
from repro.corpus import NONDET_NAMES, load_source
from repro.fs import Path, creat, file_, ite, rm, seq, none_, ERR, ID


def overwrite(path, content):
    p = Path.of(path)
    return ite(
        file_(p),
        seq(rm(p), creat(p, content)),
        ite(none_(p), creat(p, content), ERR),
    )


class TestBasicRepair:
    def test_already_deterministic_needs_nothing(self):
        from repro.digraph import DiGraph

        g = DiGraph()
        programs = {"a": creat("/a", "x"), "b": creat("/b", "y")}
        g.add_nodes_from(programs)
        result = synthesize_repair(g, programs)
        assert result.success
        assert result.added_edges == []

    def test_mkdir_then_file(self):
        """The classic provider/consumer pair: the repair must order
        the directory creator first."""
        from repro.digraph import DiGraph

        from repro.fs import mkdir

        g = DiGraph()
        programs = {"dir": mkdir("/a"), "file": creat("/a/f", "x")}
        g.add_nodes_from(programs)
        result = synthesize_repair(g, programs)
        assert result.success
        assert result.added_edges == [("dir", "file")]

    def test_two_writers_need_an_order(self):
        from repro.digraph import DiGraph

        g = DiGraph()
        programs = {"w1": overwrite("/f", "one"), "w2": overwrite("/f", "two")}
        g.add_nodes_from(programs)
        result = synthesize_repair(g, programs)
        assert result.success
        assert len(result.added_edges) == 1
        repaired = g.copy()
        repaired.add_edges_from(result.added_edges)
        assert check_determinism(repaired, programs).deterministic

    def test_unrepairable_budget(self):
        """With a zero edge budget nothing can be fixed."""
        from repro.digraph import DiGraph

        g = DiGraph()
        programs = {"w1": overwrite("/f", "one"), "w2": overwrite("/f", "two")}
        g.add_nodes_from(programs)
        result = synthesize_repair(g, programs, max_edges=0)
        assert not result.success


class TestCorpusRepair:
    @pytest.mark.parametrize("name", NONDET_NAMES)
    def test_repairs_every_nondet_benchmark(self, name):
        """The synthesizer rediscovers the fixes the paper's authors
        wrote by hand for all six buggy benchmarks."""
        tool = Rehearsal()
        graph, programs = tool.compile(load_source(name))
        result = synthesize_repair(graph, programs, max_edges=4)
        assert result.success, f"could not repair {name}"
        assert 1 <= len(result.added_edges) <= 4
        repaired = graph.copy()
        repaired.add_edges_from(result.added_edges)
        assert check_determinism(repaired, programs).deterministic

    def test_repair_direction_is_sensible_for_ntp(self):
        """ntp-nondet's fix must order the package before the file."""
        tool = Rehearsal()
        graph, programs = tool.compile(load_source("ntp-nondet"))
        result = synthesize_repair(graph, programs)
        assert result.success
        (src, dst), *_ = result.added_edges
        assert "Package" in str(src)
        assert "File" in str(dst)
