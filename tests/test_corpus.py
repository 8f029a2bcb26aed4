"""End-to-end verification of the benchmark corpus (§6 "Bugs found").

The paper's headline evaluation result: of the 13 third-party
configurations, six have determinism bugs and seven do not; every fix
verifies as deterministic *and* idempotent.
"""

import pytest

from repro import Rehearsal
from repro.corpus import (
    BENCHMARK_NAMES,
    CASES,
    DETERMINISTIC_NAMES,
    FIXED_VARIANTS,
    NONDET_NAMES,
    idempotence_subject,
    load_source,
)


@pytest.fixture(scope="module")
def tool():
    return Rehearsal()


class TestCorpusInventory:
    def test_thirteen_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 13

    def test_six_nondet_seven_det(self):
        assert len(NONDET_NAMES) == 6
        assert len(DETERMINISTIC_NAMES) == 7

    def test_every_nondet_has_a_fix(self):
        for name in NONDET_NAMES:
            assert CASES[name].fixed_by in FIXED_VARIANTS

    def test_all_sources_load(self):
        for name in BENCHMARK_NAMES + sorted(FIXED_VARIANTS):
            assert load_source(name).strip()

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_source("not-a-benchmark")


class TestDeterminismVerdicts:
    @pytest.mark.parametrize("name", DETERMINISTIC_NAMES)
    def test_deterministic_benchmarks(self, tool, name):
        result = tool.check_determinism(load_source(name))
        assert result.deterministic, f"{name} should be deterministic"

    @pytest.mark.parametrize("name", NONDET_NAMES)
    def test_nondeterministic_benchmarks(self, tool, name):
        result = tool.check_determinism(load_source(name))
        assert not result.deterministic, f"{name} should be non-deterministic"
        assert result.witness_fs is not None

    @pytest.mark.parametrize("name", sorted(FIXED_VARIANTS))
    def test_fixed_variants_deterministic(self, tool, name):
        result = tool.check_determinism(load_source(name))
        assert result.deterministic, f"{name} fix should verify"


class TestIdempotenceVerdicts:
    """Fig. 12 checks idempotence on all benchmarks (fixed variants
    stand in for the non-deterministic six, per §5's soundness gate)."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_idempotent(self, tool, name):
        subject = idempotence_subject(name)
        result = tool.check_idempotence(load_source(subject))
        assert result.idempotent, f"{subject} should be idempotent"
        # Proved by rewriting alone: losing the proof costs a SAT query.
        assert result.sat_queries == 0, f"{subject} fell back to SAT"


class TestWitnessQuality:
    @pytest.mark.parametrize("name", NONDET_NAMES)
    def test_witness_confirmed_concretely(self, tool, name):
        """Every non-determinism verdict must come with two orders that
        demonstrably diverge on the witness state."""
        from repro.fs import eval_expr, seq

        graph, programs = tool.compile(load_source(name))
        from repro.analysis import check_determinism

        result = check_determinism(graph, programs)
        assert result.witness_orders is not None
        order1, order2 = result.witness_orders
        out1 = eval_expr(seq(*[programs[n] for n in order1]), result.witness_fs)
        out2 = eval_expr(seq(*[programs[n] for n in order2]), result.witness_fs)
        assert out1 != out2
