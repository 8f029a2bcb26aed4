"""Parity of the parallel solve paths with the sequential reference:
generated catalogs, the §6 corpus, the cube pool path, and byte-level
``verify-batch`` JSON rows."""

import copy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import determinism as det_mod
from repro.analysis.determinism import DeterminismOptions, check_determinism
from repro.bench.harness import conflicting_write
from repro.core.pipeline import Rehearsal
from repro.corpus import BENCHMARK_NAMES, load_source, manifest_paths
from repro.digraph import DiGraph
from repro.service import BatchVerifier
from repro.testing import CaseGenerator

SEQUENTIAL = DeterminismOptions()
PORTFOLIO = DeterminismOptions(portfolio=2)
CUBE = DeterminismOptions(solver_workers=4)

ALL_MANIFESTS = sorted(Path(p).stem for p in manifest_paths())


def race_tuple(result):
    race = result.race
    if race is None:
        return None
    return (
        str(race.resource_a),
        str(race.resource_b),
        str(race.path),
        tuple(str(p) for p in race.core_paths),
        race.ok_divergence,
    )


def determinism_view(source, options):
    result = Rehearsal(options=options).check_determinism(source)
    return (result.deterministic, result.witness_orders, race_tuple(result))


class TestCorpusParity:
    """Every corpus manifest must produce the identical verdict AND
    the identical race localization under all three backends — the
    acceptance bar of the parallel-solving work."""

    @pytest.mark.parametrize("name", ALL_MANIFESTS)
    def test_all_backends_agree(self, name):
        source = load_source(name)
        sequential = determinism_view(source, SEQUENTIAL)
        portfolio = determinism_view(source, PORTFOLIO)
        cube = determinism_view(source, CUBE)
        assert portfolio == sequential, name
        assert cube == sequential, name

    def test_corpus_covers_both_verdicts(self):
        verdicts = {
            determinism_view(load_source(name), SEQUENTIAL)[0]
            for name in BENCHMARK_NAMES
        }
        assert verdicts == {True, False}


@settings(max_examples=12, deadline=None)
@given(case_id=st.integers(0, 500))
def test_generated_catalogs_agree_across_backends(case_id):
    case = CaseGenerator(2026).generate(case_id)
    sequential = determinism_view(case.source, SEQUENTIAL)
    assert determinism_view(case.source, PORTFOLIO) == sequential
    assert determinism_view(case.source, CUBE) == sequential


class TestCubePoolPath:
    """The coarse-grained cube path (root frontier split over the
    worker pool) — forced by shrinking the engagement grain."""

    @pytest.fixture(autouse=True)
    def small_grain(self, monkeypatch):
        monkeypatch.setattr(det_mod, "CUBE_POOL_GRAIN", 2)

    def writers_graph(self, n, with_final=False):
        programs = {
            f"w{i}": conflicting_write("/shared", f"content-{i}")
            for i in range(n)
        }
        graph = DiGraph()
        graph.add_nodes_from(programs)
        if with_final:
            programs["final"] = conflicting_write("/shared", "x")
            graph.add_node("final")
            for i in range(n):
                graph.add_edge(f"w{i}", "final")
        return graph, programs

    def test_nondet_verdict_and_race_match_sequential(self):
        graph, programs = self.writers_graph(3)
        seq = check_determinism(graph, programs, DeterminismOptions())
        par = check_determinism(
            graph, programs, DeterminismOptions(solver_workers=2)
        )
        assert par.deterministic is seq.deterministic is False
        assert race_tuple(par) == race_tuple(seq)
        assert par.witness_orders == seq.witness_orders

    def test_deterministic_verdict_matches_sequential(self):
        graph, programs = self.writers_graph(2, with_final=True)
        seq = check_determinism(graph, programs, DeterminismOptions())
        par = check_determinism(
            graph, programs, DeterminismOptions(solver_workers=2)
        )
        assert par.deterministic is seq.deterministic is True
        assert par.stats.distinct_finals == seq.stats.distinct_finals

    def test_pool_walks_no_more_final_states(self):
        """Cube subtrees overlap (each pays its own walk), but the
        merged, deduplicated final-state set must equal sequential's."""
        graph, programs = self.writers_graph(3)
        seq = check_determinism(graph, programs, DeterminismOptions())
        par = check_determinism(
            graph, programs, DeterminismOptions(solver_workers=3)
        )
        assert par.stats.distinct_finals == seq.stats.distinct_finals


#: Row fields that legitimately differ run-to-run or backend-to-backend.
#: The incremental-reuse counters are run-circumstance fields (schema
#: v5): the sequential side may hit the persistent store while the
#: portfolio side, which disables it, cannot.
VOLATILE_ROW_FIELDS = (
    "seconds",
    "solver_seconds",
    "cache_key",
    "solver_backend",
    "subtree_reuse_hits",
    "cnf_cache_hits",
    "commute_cache_hits",
)


def normalized_rows(report):
    rows = []
    for result in report.results:
        row = copy.deepcopy(result.to_dict())
        for field in VOLATILE_ROW_FIELDS:
            row.pop(field, None)
        if row.get("lint"):
            row["lint"].get("stats", {}).pop("seconds", None)
        rows.append(row)
    return rows


class TestBatchRowParity:
    def sources(self):
        generator = CaseGenerator(7)
        return [
            (f"case{i}.pp", generator.generate(i).source) for i in range(6)
        ]

    def run(self, options):
        verifier = BatchVerifier(options=options, cache=None)
        return verifier.verify_sources(self.sources())

    def test_portfolio_rows_byte_identical_to_sequential(self):
        sequential = self.run(DeterminismOptions())
        portfolio = self.run(DeterminismOptions(portfolio=2))
        assert normalized_rows(portfolio) == normalized_rows(sequential)

    def test_rows_carry_backend_label(self):
        report = self.run(DeterminismOptions(portfolio=2, solver_workers=2))
        labels = {r.solver_backend for r in report.results}
        assert labels == {"portfolio:2+cube:2"}
        sequential = self.run(DeterminismOptions())
        assert {r.solver_backend for r in sequential.results} == {"cdcl"}

    def test_corpus_verdicts_identical_under_portfolio(self):
        sources = [
            (name, load_source(name)) for name in BENCHMARK_NAMES
        ]
        seq = BatchVerifier(cache=None).verify_sources(sources)
        par = BatchVerifier(
            options=DeterminismOptions(portfolio=2), cache=None
        ).verify_sources(sources)
        for name in BENCHMARK_NAMES:
            a, b = seq.result_for(name), par.result_for(name)
            assert (a.status, a.deterministic, a.race_pair, a.race_path) == (
                b.status,
                b.deterministic,
                b.race_pair,
                b.race_path,
            ), name


class TestOptionsPlumbing:
    def test_options_remain_picklable(self):
        import pickle

        options = DeterminismOptions(
            solver="portfolio:2", portfolio=2, solver_workers=4
        )
        assert pickle.loads(pickle.dumps(options)) == options

    def test_backend_choice_rotates_cache_key(self):
        from repro.service.cache import cache_key

        source = load_source("ntp-nondet")
        keys = {
            cache_key(source, DeterminismOptions(), "ubuntu", "default", "x"),
            cache_key(
                source,
                DeterminismOptions(portfolio=2),
                "ubuntu",
                "default",
                "x",
            ),
            cache_key(
                source,
                DeterminismOptions(solver_workers=2),
                "ubuntu",
                "default",
                "x",
            ),
        }
        assert len(keys) == 3
