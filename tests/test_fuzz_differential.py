"""The differential driver, the shrinker, and the ``rehearsal fuzz``
CLI — including the acceptance drill: a deliberately sabotaged
exploration memo must be caught and shrunk to a tiny reproducer."""

import json
from unittest import mock

import pytest

from repro.core import cli
from repro.smt.state import SymbolicState
from repro.testing import (
    CaseGenerator,
    FuzzSession,
    run_source,
    shrink_case,
)

NONDET = """
file { '/etc/app.conf': content => 'one' }
file { 'dup':
  path    => '/etc/app.conf',
  content => 'two',
}
"""

DET = """
file { '/etc/app.conf': content => 'one' }
file { '/etc/other.conf': content => 'two' }
"""


class TestRunSource:
    def test_agreement_on_nondeterministic_manifest(self):
        outcome = run_source(NONDET, name="nondet")
        assert outcome.pipeline_deterministic is False
        assert outcome.oracle_deterministic is False
        assert outcome.agreed, outcome.kinds()
        # Localization agreed with the concrete ground truth: the
        # blamed pair is among the concretely racing ones, which for
        # this manifest is exactly the two writers of /etc/app.conf.
        assert outcome.oracle_racing == [
            ("File['/etc/app.conf']", "File['dup']")
        ]
        assert outcome.race_pair in outcome.oracle_racing
        assert outcome.race_path == "/etc/app.conf"

    def test_agreement_on_deterministic_manifest(self):
        outcome = run_source(DET, name="det")
        assert outcome.pipeline_deterministic is True
        assert outcome.oracle_deterministic is True
        assert outcome.agreed, outcome.kinds()

    def test_seeded_stream_has_no_disagreements(self):
        # The production pipeline vs. the oracle over a seeded block:
        # any disagreement here is a real soundness bug somewhere.
        gen = CaseGenerator(1234)
        for i in range(25):
            case = gen.generate(i)
            outcome = run_source(
                case.source, name=case.name, oracle_seed=case.case_seed
            )
            assert outcome.agreed, (i, case.bug, outcome.kinds())

    def test_pipeline_error_is_a_disagreement(self):
        outcome = run_source("file { '/x': ensure => 'link' }")
        assert outcome.kinds() == ["pipeline_error"]


@pytest.fixture
def no_incremental_store(monkeypatch):
    """Force the incremental store off for sabotaged-analysis runs.

    The sabotage drills deliberately break the exploration so the
    pipeline reaches wrong verdicts.  When the suite runs with
    ``REHEARSAL_INCREMENTAL=1`` (the CI matrix cell), those wrong
    verdicts would be recorded into the shared persistent store and
    served back to every later test that replays the same seeded
    catalogs — poisoning the whole session.  A cache faithfully
    replaying corrupted analysis is working as designed; the drill,
    not the store, must opt out.
    """
    monkeypatch.setenv("REHEARSAL_INCREMENTAL", "0")


class TestSabotageDrill:
    """Acceptance criteria: ``use_memoization`` with a sabotaged
    fingerprint merges every symbolic state, so the pipeline calls
    everything deterministic; the fuzzer must catch it and shrink the
    finding to a ≤ 4-resource reproducer."""

    def test_sabotaged_fingerprint_is_caught_and_shrunk(
        self, no_incremental_store
    ):
        with mock.patch.object(
            SymbolicState, "fingerprint", lambda self: 0
        ):
            summary = FuzzSession(
                seed=42, budget_seconds=60, cases=8, shrink=True
            ).run()
        assert summary.disagreement_count >= 1
        for finding in summary.findings:
            assert "missed_nondet" in finding.outcome.kinds()
            assert len(finding.reproducer.resources) <= 4
        # The shrunk reproducer still disagrees under sabotage and is
        # agreed-upon by the healthy pipeline.
        repro = summary.findings[0].reproducer
        healthy = run_source(repro.source, oracle_seed=repro.case_seed)
        assert healthy.agreed
        assert healthy.pipeline_deterministic is False

    def test_sabotage_summary_records_findings(self, no_incremental_store):
        with mock.patch.object(
            SymbolicState, "fingerprint", lambda self: 0
        ):
            summary = FuzzSession(
                seed=42, budget_seconds=60, cases=8, shrink=False
            ).run()
        payload = json.loads(summary.to_json())
        assert payload["disagreement_count"] == len(payload["findings"])
        assert payload["disagreement_count"] >= 1
        first = payload["findings"][0]
        assert first["kinds"] == ["missed_nondet"]
        assert first["case_seed"] == CaseGenerator(42).generate(
            first["case_id"]
        ).case_seed


class TestSessionDeterminism:
    def test_same_seed_byte_identical_summary(self):
        a = FuzzSession(seed=9, budget_seconds=60, cases=12).run()
        b = FuzzSession(seed=9, budget_seconds=60, cases=12).run()
        assert a.to_json() == b.to_json()

    def test_budget_derives_quota(self):
        session = FuzzSession(seed=1, budget_seconds=20)
        assert session.quota == 100
        explicit = FuzzSession(seed=1, budget_seconds=20, cases=7)
        assert explicit.quota == 7

    def test_wall_clock_safety_stop_marks_truncated(self):
        session = FuzzSession(seed=1, budget_seconds=0.0, cases=50)
        summary = session.run()
        assert summary.truncated
        assert summary.cases_run < 50


class TestShrinker:
    def test_shrinks_to_minimal_racing_pair(self):
        gen = CaseGenerator(42)
        # case 5 is a shared-write with an extra bystander resource.
        case = next(
            gen.generate(i)
            for i in range(20)
            if gen.generate(i).bug == "shared-write"
            and len(gen.generate(i).resources) >= 3
        )

        def still_nondet(candidate):
            outcome = run_source(
                candidate.source, oracle_seed=candidate.case_seed
            )
            return outcome.pipeline_deterministic is False

        shrunk, attempts = shrink_case(case, still_nondet)
        assert len(shrunk.resources) == 2
        assert attempts >= 1
        outcome = run_source(shrunk.source, oracle_seed=shrunk.case_seed)
        assert outcome.pipeline_deterministic is False

    def test_failing_predicate_returns_original(self):
        case = CaseGenerator(42).generate(0)
        shrunk, _ = shrink_case(case, lambda c: False)
        assert shrunk.source == case.source

    def test_crashing_predicate_is_a_refusal_not_a_crash(self):
        case = CaseGenerator(42).generate(0)

        def explodes(candidate):
            raise RuntimeError("candidate broke the toolchain")

        shrunk, _ = shrink_case(case, explodes)
        assert shrunk.source == case.source

    def test_attempt_cap_is_respected(self):
        case = CaseGenerator(42).generate(3)
        calls = []

        def count(candidate):
            calls.append(1)
            return False

        shrink_case(case, count, max_attempts=5)
        assert len(calls) <= 5


class TestFuzzCli:
    def test_clean_run_exit_zero_and_deterministic_output(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert (
            cli.main(
                ["fuzz", "--seed", "42", "--cases", "15", "--quiet",
                 "--out", str(out_a)]
            )
            == 0
        )
        assert (
            cli.main(
                ["fuzz", "--seed", "42", "--cases", "15", "--quiet",
                 "--out", str(out_b)]
            )
            == 0
        )
        summary_a = (out_a / "summary.json").read_bytes()
        summary_b = (out_b / "summary.json").read_bytes()
        assert summary_a == summary_b
        payload = json.loads(summary_a)
        assert payload["seed"] == 42
        assert payload["cases_run"] == 15
        assert payload["disagreement_count"] == 0

    def test_disagreement_exits_one_and_writes_reproducer(
        self, tmp_path, capsys, no_incremental_store
    ):
        out = tmp_path / "fuzz"
        with mock.patch.object(
            SymbolicState, "fingerprint", lambda self: 0
        ):
            code = cli.main(
                ["fuzz", "--seed", "42", "--cases", "6", "--shrink",
                 "--quiet", "--out", str(out)]
            )
        assert code == 1
        captured = capsys.readouterr()
        assert "DISAGREEMENT" in captured.err
        repros = sorted(out.glob("repro-*.pp"))
        assert repros, "every finding ships a reproducer file"
        from repro.testing.regressions import parse_header

        header = parse_header(repros[0].read_text(), repros[0].name)
        assert header.seed == 42
        assert header.disagreement == "missed_nondet"

    def test_truncated_explicit_cases_exit_three(self):
        # An explicit --cases pins coverage: when the wall clock stops
        # the run short, success (exit 0) would be a lie.
        code = cli.main(
            ["fuzz", "--seed", "1", "--cases", "50", "--budget",
             "0.000001", "--quiet"]
        )
        assert code == 3

    def test_reproduction_hint_is_seed_and_case_count(
        self, capsys, no_incremental_store
    ):
        """Cases are a pure function of (seed, case_id): the hint
        names both and nothing else."""
        with mock.patch.object(
            SymbolicState, "fingerprint", lambda self: 0
        ):
            code = cli.main(
                ["fuzz", "--seed", "42", "--cases", "6", "--quiet"]
            )
        assert code == 1
        hints = [
            line for line in capsys.readouterr().err.splitlines()
            if "reproduce with" in line
        ]
        assert hints
        for line in hints:
            case_id = int(line.split("case ")[1].split(" ")[0])
            assert line.endswith(
                f"reproduce with --seed 42 --cases {case_id + 1}"
            ), line

    @pytest.mark.parametrize(
        "flag", ["--max-resources", "--edge-density", "--path-contention"]
    )
    def test_generator_settings_are_not_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuzz", flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bad_invocations_exit_two(self, tmp_path):
        assert cli.main(["fuzz", "--budget", "0"]) == 2
        assert cli.main(["fuzz", "--cases", "0"]) == 2
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        assert (
            cli.main(["fuzz", "--cases", "1", "--out", str(blocked)])
            == 2
        )


class TestLintCrossExamination:
    """``--lint``: the static analyzer runs on every case and its
    definite races (REH005) are checked against the oracle — which is
    fed lint's own divergence witnesses, so a bogus witness cannot
    hide in an unsampled state."""

    def test_run_source_records_lint_verdicts(self):
        outcome = run_source(NONDET, name="nondet", lint=True)
        assert outcome.lint_ran
        assert outcome.lint_definite_pairs == [
            ("File['/etc/app.conf']", "File['dup']")
        ]
        assert not outcome.lint_missed_definite_race
        assert outcome.agreed, outcome.kinds()
        assert outcome.to_dict()["lint"]["definite_pairs"]

    def test_lint_off_by_default(self):
        outcome = run_source(NONDET, name="nondet")
        assert not outcome.lint_ran
        assert outcome.to_dict()["lint"] is None

    def test_seeded_session_has_no_false_races(self):
        summary = FuzzSession(seed=7, cases=40, lint=True).run()
        assert summary.lint_enabled
        assert summary.lint_false_races == 0
        assert summary.lint_definite_races > 0
        payload = json.loads(summary.to_json())
        assert payload["schema"] == 2
        assert payload["lint"]["enabled"] is True
        assert payload["lint"]["false_races"] == 0

    def test_false_race_is_a_failing_disagreement(self):
        """Sabotage drill: force lint to claim a definite race on a
        deterministic case and the session must go red."""
        from repro.analysis.lint import LintReport
        from repro.testing import differential

        real_lint_graph = None

        def sabotaged(graph, programs, name="<graph>", options=None):
            report = real_lint_graph(graph, programs, name, options)
            if not report.definite_race_pairs():
                nodes = sorted(map(str, graph.nodes))[:2]
                if len(nodes) == 2:
                    from repro.analysis.lint import RaceWitness
                    from repro.fs.filesystem import FileSystem

                    report.race_witnesses.append(
                        RaceWitness(
                            a=nodes[0],
                            b=nodes[1],
                            initial=FileSystem.empty(),
                            order_a=tuple(nodes),
                            order_b=tuple(reversed(nodes)),
                            outcome_a="forged-one",
                            outcome_b="forged-two",
                        )
                    )
            return report

        import repro.analysis.lint as lint_pkg

        real_lint_graph = lint_pkg.lint_graph
        with mock.patch.object(lint_pkg, "lint_graph", sabotaged):
            outcome = run_source(DET, name="det", lint=True)
        assert any(
            d.kind == "lint_false_race" for d in outcome.disagreements
        )
        assert not outcome.agreed

    def test_cli_lint_flag_reports_and_stays_green(self, capsys):
        assert (
            cli.main(
                ["fuzz", "--seed", "42", "--cases", "25", "--lint",
                 "--quiet"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "false race(s)" in out
        assert "0 false race(s)" in out
