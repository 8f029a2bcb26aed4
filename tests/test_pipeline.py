"""Tests for the end-to-end pipeline, report rendering, and CLI."""

import re

import pytest

from repro import Rehearsal
from repro.analysis import ensures_file
from repro.core.cli import main as cli_main
from repro.core.report import (
    render_determinism,
    render_idempotence,
    render_report,
)
from repro.fs import Path
from repro.resources.compiler import ModelContext

FIG_3A = """
file {"/etc/apache2/sites-available/000-default.conf":
  content => "site config",
}
package {"apache2": ensure => present }
"""

FIG_3A_FIXED = FIG_3A + """
Package['apache2'] -> File['/etc/apache2/sites-available/000-default.conf']
"""


@pytest.fixture(scope="module")
def tool():
    return Rehearsal()


class TestVerify:
    def test_buggy_manifest(self, tool):
        report = tool.verify(FIG_3A, name="fig3a")
        assert report.error is None
        assert report.deterministic is False
        assert report.idempotent is None  # gated, §5
        assert not report.ok

    def test_fixed_manifest(self, tool):
        report = tool.verify(FIG_3A_FIXED, name="fig3a-fixed")
        assert report.deterministic is True
        assert report.idempotent is True
        assert report.ok

    def test_syntax_error_reported(self, tool):
        report = tool.verify("file{'/a' oops", name="broken")
        assert report.error is not None
        assert "line" in report.error

    def test_eval_error_captured(self, tool):
        report = tool.verify("include missing_class", name="bad")
        assert report.error is not None
        assert "unknown class" in report.error

    def test_cycle_captured(self, tool):
        report = tool.verify(
            """
            package{'a': } package{'b': }
            Package['a'] -> Package['b']
            Package['b'] -> Package['a']
            """,
            name="cycle",
        )
        assert report.error is not None
        assert "cycle" in report.error

    def test_exec_rejected_at_compile(self, tool):
        from repro.errors import UnsupportedResourceError

        with pytest.raises(UnsupportedResourceError):
            tool.compile("exec{'apt-get update': }")

    def test_check_invariant(self, tool):
        result = tool.check_invariant(
            "file{'/motd': content => 'hello' }",
            ensures_file(Path.of("/motd"), "hello"),
        )
        assert result.holds

    def test_facts_propagate(self):
        tool = Rehearsal(context=ModelContext(facts={"role": "web"}))
        graph, _ = tool.compile(
            """
            if $role == 'web' { package{'nginx': } }
            else { package{'vim': } }
            """
        )
        assert "Package['nginx']" in graph.nodes


class TestRendering:
    def test_nondet_report_mentions_witness(self, tool):
        result = tool.check_determinism(FIG_3A)
        text = render_determinism(result)
        assert "NON-DETERMINISTIC" in text
        assert "Witness initial filesystem" in text
        assert "Diverging orders" in text

    def test_det_report(self, tool):
        result = tool.check_determinism(FIG_3A_FIXED)
        text = render_determinism(result)
        assert "DETERMINISTIC" in text

    def test_idempotence_rendering(self, tool):
        idem = tool.check_idempotence(FIG_3A_FIXED)
        assert "IDEMPOTENT" in render_idempotence(idem)

    def test_full_report_rendering(self, tool):
        report = tool.verify(FIG_3A_FIXED, name="demo")
        text = render_report(report)
        assert "demo" in text
        assert "DETERMINISTIC" in text
        assert "IDEMPOTENT" in text

    def test_error_report_rendering(self, tool):
        report = tool.verify("include nope", name="broken")
        assert "ERROR" in render_report(report)

    def test_nondet_report_notes_gated_idempotence(self, tool):
        report = tool.verify(FIG_3A, name="buggy")
        text = render_report(report)
        assert "idempotence not checked" in text


class TestCli:
    def test_cli_on_nondet_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "bad.pp"
        manifest.write_text(FIG_3A)
        code = cli_main([str(manifest)])
        out = capsys.readouterr().out
        assert code == 1
        assert "NON-DETERMINISTIC" in out

    def test_cli_on_good_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "good.pp"
        manifest.write_text(FIG_3A_FIXED)
        code = cli_main([str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "DETERMINISTIC" in out
        assert "IDEMPOTENT" in out

    def test_cli_flags(self, tmp_path, capsys):
        manifest = tmp_path / "good.pp"
        manifest.write_text(FIG_3A_FIXED)
        code = cli_main(
            [str(manifest), "--no-pruning", "--no-commutativity", "--timeout", "60"]
        )
        assert code == 0

    def test_cli_strict_packages(self, tmp_path, capsys):
        manifest = tmp_path / "unknown.pp"
        manifest.write_text("package{'definitely-not-a-real-pkg': }")
        code = cli_main([str(manifest), "--strict-packages"])
        out = capsys.readouterr().out
        assert code == 1
        assert "not in the database" in out

    def test_cli_explain(self, tmp_path, capsys):
        manifest = tmp_path / "bad.pp"
        manifest.write_text(FIG_3A)
        code = cli_main([str(manifest), "--explain"])
        out = capsys.readouterr().out
        assert code == 1
        assert "--- order (1) ---" in out
        assert "FAILED" in out or "success" in out

    def test_cli_explain_builds_the_frontend_once(self, monkeypatch, capsys):
        """``verify --explain`` explains from the frontend the verify
        built; its text is that of a verify plus an explanation from a
        second, separately compiled frontend."""
        from repro.core import pipeline
        from repro.core.report import render_explanation
        from repro.corpus import load_source, manifest_dir

        path = str(manifest_dir() / "ntp-nondet.pp")
        source = load_source("ntp-nondet")
        tool = Rehearsal()
        report = tool.verify(source, name=path)
        _, programs = tool.compile(source)
        expected = (
            render_report(report)
            + "\n\n"
            + render_explanation(
                report.determinism,
                programs,
                declared_at=report.declared_at,
                manifest_name=report.manifest_name,
            )
            + "\n"
        )

        calls = []
        original = pipeline.build_frontend

        def build_frontend(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_frontend", build_frontend)
        assert cli_main(["verify", path, "--explain"]) == 1
        out = capsys.readouterr().out
        assert len(calls) == 1

        def untimed(text):
            return re.sub(r"[0-9]+\.[0-9]+s\b", "<t>s", text)

        assert untimed(out) == untimed(expected)

    def test_cli_node_selection(self, tmp_path, capsys):
        manifest = tmp_path / "nodes.pp"
        manifest.write_text(
            """
            node 'web' { package{'nginx': } }
            node default { }
            """
        )
        code = cli_main([str(manifest), "--node", "web"])
        out = capsys.readouterr().out
        assert "1 primitive resources" in out
        assert code == 0
