"""Replay every committed fuzz counterexample forever.

Files under ``tests/regressions/`` are shrunk reproducers of historical
pipeline/oracle disagreements (see ``docs/fuzzing.md``).  Each must:

* parse and carry a well-formed machine-readable header;
* produce the pinned verdict from the *current* pipeline;
* show **no** disagreement between the pipeline and the concrete
  oracle — the bug that minted the file must stay fixed — under its
  header seed and under each of ``ORACLE_SEEDS``, so a fix that only
  holds for one slice of the oracle's initial states does not pass.

``tools/check_regressions.py`` cross-checks this test's discovery
against the directory contents in CI, so a dropped file cannot
silently skip its replay.
"""

from pathlib import Path

import pytest

from repro.puppet.parser import parse_manifest
from repro.testing import run_source
from repro.testing.regressions import (
    RegressionFormatError,
    RegressionHeader,
    discover,
    format_reproducer,
    parse_header,
)

REGRESSION_DIR = Path(__file__).parent / "regressions"
REGRESSIONS = discover(REGRESSION_DIR)

#: Oracle seeds every reproducer is replayed under besides its header
#: seed; each samples a different set of initial filesystems.
ORACLE_SEEDS = range(9)

#: (path, oracle seed) replays; ``None`` means the header's seed and
#: keeps the bare file stem as its test id.
REPLAYS = [
    pytest.param(
        path,
        seed,
        id=path.stem if seed is None else f"{path.stem}-oracle{seed}",
    )
    for path in REGRESSIONS
    for seed in (None, *ORACLE_SEEDS)
]


def test_corpus_is_not_empty():
    assert REGRESSIONS, "tests/regressions/ must hold reproducers"


class TestReplay:
    @pytest.mark.parametrize(
        "path", REGRESSIONS, ids=[p.stem for p in REGRESSIONS]
    )
    def test_parses_with_header(self, path):
        text = path.read_text(encoding="utf8")
        header = parse_header(text, path.name)
        assert header.seed >= 0
        # A reproducer minted under an older generator is stale: its
        # seed/case-id no longer re-create the committed catalog.
        # Re-mint the corpus when bumping GENERATOR_VERSION.
        from repro.testing.generate import GENERATOR_VERSION

        assert header.generator_version == GENERATOR_VERSION, (
            f"{path.name}: minted under generator "
            f"v{header.generator_version}, current is "
            f"v{GENERATOR_VERSION}"
        )
        parse_manifest(text)

    @pytest.mark.parametrize("path, oracle_seed", REPLAYS)
    def test_no_disagreement_and_pinned_verdict(self, path, oracle_seed):
        text = path.read_text(encoding="utf8")
        header = parse_header(text, path.name)
        if oracle_seed is None:
            oracle_seed = header.seed
        outcome = run_source(text, name=path.name, oracle_seed=oracle_seed)
        where = f"{path.name} (oracle seed {oracle_seed})"
        assert outcome.agreed, (
            f"{where}: the disagreement this reproducer was minted "
            f"for is back: {outcome.kinds()}"
        )
        assert (
            outcome.pipeline_deterministic
            == header.expected_deterministic
        ), f"{where}: pinned determinism verdict changed"
        if header.expected_idempotent is not None:
            assert (
                outcome.pipeline_idempotent
                == header.expected_idempotent
            ), f"{where}: pinned idempotence verdict changed"

    def test_oracle_seeds_sample_states_the_header_seed_does_not(self):
        """The replays under ``ORACLE_SEEDS`` are not copies of the
        header-seed one: for some reproducers they hand the oracle
        initial filesystems the header seed never draws.  (A tiny
        footprint can leave nothing new to draw.)"""
        from repro.core.pipeline import Rehearsal
        from repro.testing.oracle import initial_state_family

        widened = {}
        for path in REGRESSIONS:
            text = path.read_text(encoding="utf8")
            header = parse_header(text, path.name)
            _, programs = Rehearsal().compile(text)
            base = set(
                initial_state_family(programs.values(), seed=header.seed)
            )
            extra = set().union(
                *(
                    initial_state_family(programs.values(), seed=seed)
                    for seed in ORACLE_SEEDS
                )
            )
            widened[path.stem] = len(extra - base)
        assert any(widened.values()), widened


class TestHeaderFormat:
    def test_round_trip(self):
        text = format_reproducer(
            "file { '/etc/x': content => 'a' }",
            seed=7,
            case_id=3,
            disagreement="missed_nondet",
            expected_deterministic=False,
            expected_idempotent=None,
            bug_class="shared-write",
            found_by="unit-test",
        )
        header = parse_header(text)
        assert header == RegressionHeader(
            seed=7,
            case_id=3,
            generator_version=header.generator_version,
            disagreement="missed_nondet",
            expected_deterministic=False,
            expected_idempotent=None,
            bug_class="shared-write",
            found_by="unit-test",
        )

    def test_missing_marker_rejected(self):
        with pytest.raises(RegressionFormatError, match="first line"):
            parse_header("file { '/x': }")

    def test_missing_required_key_rejected(self):
        with pytest.raises(RegressionFormatError, match="missing"):
            parse_header(
                "# rehearsal-fuzz reproducer\n# seed: 1\nfile { '/x': }"
            )

    def test_bad_tristate_rejected(self):
        text = format_reproducer(
            "file { '/x': }",
            seed=1,
            case_id=0,
            disagreement="x",
            expected_deterministic=True,
        ).replace("expected-deterministic: true", "expected-deterministic: maybe")
        with pytest.raises(RegressionFormatError, match="true/false/none"):
            parse_header(text)

    def test_discover_is_sorted_and_pp_only(self, tmp_path):
        (tmp_path / "b.pp").write_text("x")
        (tmp_path / "a.pp").write_text("x")
        (tmp_path / "ignore.txt").write_text("x")
        assert [p.name for p in discover(tmp_path)] == ["a.pp", "b.pp"]


#: Reproducers whose nondeterminism the static analyzer is KNOWN to
#: miss (no REH005 definite race).  The contract is one-way: this list
#: may only shrink.  An entry that lint starts flagging fails the test
#: below until it is removed; new reproducers that lint misses must be
#: added here explicitly (with a comment on why) rather than silently
#: weakening the analyzer.  Currently every committed reproducer is
#: caught.
KNOWN_LINT_GAPS: frozenset = frozenset()


class TestLintCoverage:
    """Every committed reproducer of a *nondeterminism* disagreement
    should also be caught by the SAT-free analyzer — and the gap list
    above can only shrink."""

    def test_gap_list_names_real_reproducers(self):
        stems = {p.stem for p in REGRESSIONS}
        assert KNOWN_LINT_GAPS <= stems, (
            f"stale gap entries: {sorted(KNOWN_LINT_GAPS - stems)}"
        )

    @pytest.mark.parametrize(
        "path", REGRESSIONS, ids=[p.stem for p in REGRESSIONS]
    )
    def test_lint_finds_the_race_or_is_a_documented_gap(self, path):
        from repro.analysis.lint import lint_source

        text = path.read_text(encoding="utf8")
        header = parse_header(text, path.name)
        if header.expected_deterministic is not False:
            pytest.skip("reproducer is not a nondeterminism witness")
        report = lint_source(text, name=path.name)
        found = bool(report.definite_race_pairs())
        if path.stem in KNOWN_LINT_GAPS:
            assert not found, (
                f"{path.name}: lint now catches this race — remove it "
                "from KNOWN_LINT_GAPS (the list may only shrink)"
            )
        else:
            assert found, (
                f"{path.name}: lint no longer finds the definite race "
                "(regression: the analyzer got weaker)"
            )
