"""Parity of the single determinacy loop (eager first-divergence
racing) with the sequential, portfolio and cube backends it replaced:
the §6 corpus and generated catalogs against their recorded verdicts,
witness orders and race localizations, plus the backend label and
options plumbing of ``verify-batch`` rows."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import DeterminismOptions
from repro.core.pipeline import Rehearsal
from repro.corpus import BENCHMARK_NAMES, load_source, manifest_paths
from repro.service import BatchVerifier
from repro.testing import CaseGenerator

SEQUENTIAL = DeterminismOptions()

ALL_MANIFESTS = sorted(Path(p).stem for p in manifest_paths())

#: The verdict, witness orders and race tuple the sequential
#: explore-everything-then-solve loop produced — per corpus manifest,
#: and per ``CaseGenerator(2026)`` case id — recorded before eager
#: racing replaced it (the portfolio and cube backends agreed with it
#: on every one).
RECORDED = json.loads(
    (Path(__file__).parent / "data" / "determinism-views.json").read_text()
)


def race_tuple(result):
    race = result.race
    if race is None:
        return None
    return [
        str(race.resource_a),
        str(race.resource_b),
        str(race.path),
        [str(p) for p in race.core_paths],
        race.ok_divergence,
    ]


def determinism_view(source, options):
    result = Rehearsal(options=options).check_determinism(source)
    orders = result.witness_orders
    return {
        "deterministic": result.deterministic,
        "witness_orders": (
            [[str(n) for n in order] for order in orders]
            if orders is not None
            else None
        ),
        "race": race_tuple(result),
    }


class TestCorpusParity:
    """Every corpus manifest must produce the identical verdict AND
    the identical race localization the retired backends recorded:
    on these manifests, stopping exploration at the first divergence
    changes how much of the state space is walked, not what is
    reported."""

    @pytest.mark.parametrize("name", ALL_MANIFESTS)
    def test_all_backends_agree(self, name):
        view = determinism_view(load_source(name), SEQUENTIAL)
        assert view == RECORDED["corpus"][name], name

    def test_corpus_covers_both_verdicts(self):
        verdicts = {
            determinism_view(load_source(name), SEQUENTIAL)["deterministic"]
            for name in BENCHMARK_NAMES
        }
        assert verdicts == {True, False}


@settings(max_examples=12, deadline=None)
@given(case_id=st.integers(0, len(RECORDED["generated"]) - 1))
def test_generated_catalogs_agree_across_backends(case_id):
    case = CaseGenerator(2026).generate(case_id)
    view = determinism_view(case.source, SEQUENTIAL)
    assert view == RECORDED["generated"][str(case_id)]


class TestBatchRowParity:
    def test_rows_carry_backend_label(self):
        generator = CaseGenerator(7)
        sources = [
            (f"case{i}.pp", generator.generate(i).source) for i in range(6)
        ]
        report = BatchVerifier(cache=None).verify_sources(sources)
        assert {r.solver_backend for r in report.results} == {"cdcl"}


class TestOptionsPlumbing:
    def test_options_remain_picklable(self):
        import pickle

        options = DeterminismOptions(max_branches=17, timeout_seconds=3.0)
        assert pickle.loads(pickle.dumps(options)) == options
