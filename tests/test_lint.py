"""Unit tests for the SAT-free static analyzer (``repro.analysis.lint``).

Covers the rule registry, per-rule emission, severity semantics
(including the REH006 demotion contract), the escalation guard, rule
disabling, the per-manifest lint row in batch reports, and the
``rehearsal lint`` CLI exit-code contract.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import (
    Diagnostic,
    LintContext,
    LintOptions,
    LintReport,
    RULES,
    Severity,
    lint_graph,
    lint_source,
)
from repro.analysis.lint.engine import Rule, register_rule
from repro.core.cli import main as cli_main
from repro.fs import ID, cp, creat, eval_expr, file_, ite, none_, rm, seq
from repro.fs.paths import Path as FsPath
from repro.fs.rewrite import proves_idempotent

from test_fs_rewrite import _random_expr

# Hand-sized manifests exercising one rule each.
PARSE_ERROR = "file { bad"
DUPLICATE_DECL = (
    'file {"/etc/a.conf": content => "x" }\n'
    'file {"/etc/a.conf": content => "y" }'
)
MODEL_ERROR = 'file {"/etc/a.conf": ensure => "banana" }'
DUPLICATE_PATH = (
    'file {"one": path => "/etc/a.conf", content => "x" }\n'
    'file {"two": path => "/etc/a.conf", content => "y" }'
)
DEFINITE_RACE = (
    'file {"/etc/apache2/sites-available/default.conf": content => "z" }\n'
    'package {"apache2": ensure => present }'
)
DANGLING = 'file {"/etc/a.conf": content => "x", require => Package["nope"] }'
CYCLE = (
    'file {"/a": content => "x", require => File["/b"] }\n'
    'file {"/b": content => "y", require => File["/a"] }'
)
MISSING_PARENT = 'file {"/opt/deep/nested/file.conf": content => "x" }'
PROTECTED = 'file {"/etc/passwd": content => "pwned" }'
# A file resource and a host entry write the same file with the same
# content: a real W/W conflict, benign because both orders converge.
BENIGN_RACE = (
    'file {"/etc/hosts.d": ensure => directory }\n'
    'file {"/etc/hosts.d/web": content => "host:web:10.0.0.1",'
    ' require => File["/etc/hosts.d"] }\n'
    'host {"web": ip => "10.0.0.1", require => File["/etc/hosts.d"] }'
)
CLEAN = (
    'file {"/app": ensure => directory }\n'
    'file {"/app/a.conf": content => "x", require => File["/app"] }'
)


def rules_of(report: LintReport):
    return sorted({d.rule_id for d in report.diagnostics})


class TestRegistry:
    def test_catalogue_is_complete_and_stable(self):
        assert sorted(RULES) == [f"REH{n:03d}" for n in range(1, 12)]

    def test_severities(self):
        expected = {
            "REH001": Severity.ERROR,
            "REH002": Severity.ERROR,
            "REH003": Severity.ERROR,
            "REH004": Severity.ERROR,
            "REH005": Severity.ERROR,
            "REH006": Severity.WARNING,
            "REH007": Severity.ERROR,
            "REH008": Severity.ERROR,
            "REH009": Severity.NOTE,
            "REH010": Severity.WARNING,
            "REH011": Severity.WARNING,
        }
        assert {rid: r.severity for rid, r in RULES.items()} == expected

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_rule(
                Rule(
                    id="REH001",
                    name="clone",
                    severity=Severity.NOTE,
                    summary="dup",
                    description="dup",
                )
            )

    def test_severity_ordering_and_rendering(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR
        assert str(Severity.ERROR) == "error"
        assert Severity.NOTE.sarif_level == "note"
        assert Severity.WARNING.sarif_level == "warning"


class TestRules:
    @pytest.mark.parametrize(
        "source,rule_id",
        [
            (PARSE_ERROR, "REH001"),
            (DUPLICATE_DECL, "REH002"),
            (MODEL_ERROR, "REH003"),
            (DUPLICATE_PATH, "REH004"),
            (DEFINITE_RACE, "REH005"),
            (DANGLING, "REH007"),
            (CYCLE, "REH008"),
        ],
        ids=lambda v: v if isinstance(v, str) and v.startswith("REH") else "",
    )
    def test_error_rules_fire_and_exit_2(self, source, rule_id):
        report = lint_source(source, name="case.pp")
        assert rule_id in rules_of(report)
        assert report.max_severity == Severity.ERROR
        assert report.exit_code == 2
        assert not report.clean

    def test_missing_parent_is_a_note_and_clean(self):
        report = lint_source(MISSING_PARENT, name="parent.pp")
        assert rules_of(report) == ["REH009"]
        assert report.clean
        assert report.exit_code == 0

    def test_protected_write_needs_optin(self):
        quiet = lint_source(PROTECTED, name="prot.pp")
        assert "REH010" not in rules_of(quiet)
        report = lint_source(
            PROTECTED,
            name="prot.pp",
            options=LintOptions(protected=(FsPath.of("/etc/passwd"),)),
        )
        assert "REH010" in rules_of(report)
        assert report.exit_code == 1  # warning, not error

    def test_clean_manifest_is_clean(self):
        report = lint_source(CLEAN, name="clean.pp")
        assert report.diagnostics == []
        assert report.clean and report.exit_code == 0

    def test_definite_race_records_witness_and_pair(self):
        report = lint_source(DEFINITE_RACE, name="race.pp")
        assert len(report.race_witnesses) == 1
        witness = report.race_witnesses[0]
        assert witness.outcome_a != witness.outcome_b
        pairs = report.definite_race_pairs()
        assert len(pairs) == 1
        assert sorted(pairs[0]) == list(pairs[0])

    def test_spans_point_at_declarations(self):
        report = lint_source(DUPLICATE_PATH, name="dup.pp")
        dup = next(d for d in report.diagnostics if d.rule_id == "REH004")
        assert (dup.line, dup.col) == (2, 7)  # the later claimant
        assert dup.related and dup.related[0].line == 1


def lint_program(node, program):
    """Lint a one-resource graph whose program is built by hand: the
    resource model compiles to guarded programs, so REH011's findings
    are exercised at the graph layer."""
    from repro.digraph import DiGraph

    graph = DiGraph()
    graph.add_node(node)
    return lint_graph(graph, {node: program}, name=f"{node}.pp")


@pytest.fixture
def sampler_calls(monkeypatch):
    """Programs REH011 hands to its concrete sampler."""
    from repro.analysis.lint.rules import idempotence as rule

    calls = []
    sample = rule._sampled_failure

    def counting(program):
        calls.append(program)
        return sample(program)

    monkeypatch.setattr(rule, "_sampled_failure", counting)
    return calls


class TestNonIdempotentResource:
    """REH011 tries the rewriting proof first and samples concrete
    states only for the resources it cannot prove."""

    P, Q = FsPath.of("/p"), FsPath.of("/q")

    @pytest.mark.parametrize(
        "program,outcome",
        [
            # Unguarded creat: the second run errors (path exists).
            (creat("/x", "c"), "fails"),
            # A toggle: removes the file it finds, creates the one it
            # does not.
            (
                ite(file_(P), rm(P), creat(P, "x")),
                "changes the filesystem again",
            ),
        ],
    )
    def test_unprovable_and_non_idempotent_fires(
        self, sampler_calls, program, outcome
    ):
        report = lint_program("raw", program)
        assert [(d.rule_id, d.message) for d in report.diagnostics] == [
            (
                "REH011",
                "raw is not idempotent: a second run from the state the "
                f"first run produced {outcome}",
            )
        ]
        assert sampler_calls == [program]

    def test_unprovable_but_idempotent_is_sampled_and_quiet(
        self, sampler_calls
    ):
        # ``none?`` refines the else branch only to "exists", so the
        # rewriter cannot fold the second copy's guard; concretely the
        # second run always takes the no-op branch.
        program = ite(none_(self.Q), cp(self.P, self.Q), ID)
        assert not proves_idempotent(program)
        report = lint_program("guarded", program)
        assert report.diagnostics == []
        assert sampler_calls == [program]

    def test_corpus_needs_no_sampling(self, sampler_calls, monkeypatch):
        from repro.analysis.lint.rules import idempotence as rule
        from repro.corpus import manifest_paths

        proved = []
        prove = rule.proves_idempotent

        def counting(program):
            proved.append(program)
            return prove(program)

        monkeypatch.setattr(rule, "proves_idempotent", counting)
        for path in manifest_paths():
            with open(path, encoding="utf8") as handle:
                report = lint_source(handle.read(), name=path)
            assert "REH011" not in rules_of(report)
        assert len(proved) == 89  # every corpus resource went through REH011
        assert sampler_calls == []

    @given(st.integers(min_value=0, max_value=80_000))
    @settings(max_examples=120, deadline=None)
    def test_proof_holds_on_the_sampled_states(self, seed):
        """Skipping a proved resource loses nothing: no state the rule
        would have sampled shows ``e; e ≠ e``."""
        from repro.analysis.lint.rules.idempotence import _MAX_STATES
        from repro.testing.oracle import initial_state_family

        e = _random_expr(random.Random(seed), depth=4)
        if not proves_idempotent(e):
            return
        twice = seq(e, e)
        for fs in initial_state_family([e], max_states=_MAX_STATES, seed=0):
            assert eval_expr(twice, fs) == eval_expr(e, fs), (
                f"e; e differs from e\ne={e}\nfs={fs!r}"
            )


class TestDemotion:
    """REH006 candidates surviving a complete confirmation sweep are
    notes, not warnings — 'clean' means no *actionable* diagnostics."""

    def test_surviving_candidates_demote_to_note(self):
        report = lint_source(BENIGN_RACE, name="benign.pp")
        sixes = [d for d in report.diagnostics if d.rule_id == "REH006"]
        assert sixes, "the file and the host entry write the same file"
        assert "/etc/hosts.d/web" in sixes[0].paths
        assert all(d.severity == Severity.NOTE for d in sixes)
        assert report.clean and report.exit_code == 0

    def test_without_confirmation_they_stay_warnings(self):
        report = lint_source(
            BENIGN_RACE,
            name="benign.pp",
            options=LintOptions(confirm_races=False),
        )
        sixes = [d for d in report.diagnostics if d.rule_id == "REH006"]
        assert sixes
        assert all(d.severity == Severity.WARNING for d in sixes)
        assert report.exit_code == 1

    def test_escalation_above_rule_severity_rejected(self):
        ctx = LintContext(
            name="x.pp",
            options=LintOptions(),
            report=LintReport(name="x.pp"),
        )
        with pytest.raises(ValueError):
            ctx.diag(
                "REH009",  # a NOTE rule
                "boom",
                severity=Severity.ERROR,
            )


class TestDisabling:
    def test_disabled_rules_do_not_fire(self):
        report = lint_source(
            MISSING_PARENT,
            name="parent.pp",
            options=LintOptions(disabled=("REH009",)),
        )
        assert report.diagnostics == []

    def test_other_rules_unaffected(self):
        report = lint_source(
            DEFINITE_RACE,
            name="race.pp",
            options=LintOptions(disabled=("REH009",)),
        )
        assert "REH005" in rules_of(report)


class TestReportShape:
    def test_render_mentions_the_sat_free_contract(self):
        report = lint_source(CLEAN, name="clean.pp")
        assert "0 SAT queries" in report.render()

    def test_diagnostic_render_format(self):
        diag = Diagnostic(
            rule_id="REH005",
            rule_name="definite-race",
            severity=Severity.ERROR,
            message="boom",
            file="m.pp",
            line=3,
            col=7,
        )
        assert diag.render() == "m.pp:3:7: error REH005 [definite-race] boom"

    def test_to_dict_round_trips_to_json(self):
        report = lint_source(DEFINITE_RACE, name="race.pp")
        data = json.loads(json.dumps(report.to_dict()))
        assert data["name"] == "race.pp"
        assert data["clean"] is False
        assert data["exit_code"] == 2
        assert data["counts"]["error"] >= 1
        assert data["stats"]["races_confirmed"] >= 1
        assert all(
            {"rule_id", "severity", "line", "col"} <= set(d)
            for d in data["diagnostics"]
        )


class TestBatchLintRow:
    def test_verify_batch_rows_carry_lint_verdicts(self, tmp_path):
        (tmp_path / "clean.pp").write_text(CLEAN)
        (tmp_path / "race.pp").write_text(DEFINITE_RACE)
        out = tmp_path / "report.json"
        cli_main(
            [
                "verify-batch",
                str(tmp_path),
                "--no-cache",
                "--json",
                str(out),
            ]
        )
        data = json.loads(out.read_text())
        assert data["schema_version"] == 5
        rows = {r["name"].rsplit("/", 1)[-1]: r for r in data["results"]}
        assert rows["clean.pp"]["lint"]["clean"] is True
        assert rows["race.pp"]["lint"]["clean"] is False
        assert any(
            d["rule_id"] == "REH005"
            for d in rows["race.pp"]["lint"]["diagnostics"]
        )


class TestCli:
    def lint(self, *argv):
        return cli_main(["lint", *map(str, argv)])

    def test_exit_0_on_clean(self, tmp_path, capsys):
        path = tmp_path / "clean.pp"
        path.write_text(CLEAN)
        assert self.lint(path) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_1_on_warnings(self, tmp_path):
        path = tmp_path / "prot.pp"
        path.write_text(PROTECTED)
        assert self.lint(path, "--protect", "/etc/passwd") == 1

    def test_exit_2_on_errors(self, tmp_path, capsys):
        path = tmp_path / "race.pp"
        path.write_text(DEFINITE_RACE)
        assert self.lint(path) == 2
        assert "REH005" in capsys.readouterr().out

    def test_exit_3_on_bad_invocation(self, tmp_path):
        assert self.lint(tmp_path / "missing.pp") == 3

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "race.pp"
        path.write_text(DEFINITE_RACE)
        assert self.lint(path, "--format", "json") == 2
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert [m["name"] for m in data["manifests"]] == [str(path)]

    def test_disable_flag(self, tmp_path):
        path = tmp_path / "parent.pp"
        path.write_text(MISSING_PARENT)
        assert self.lint(path, "--disable", "REH009") == 0
