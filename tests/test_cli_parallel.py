"""The solver-backend CLI surface: ``--solver`` validation (exit 2
before any work, including for the retired portfolio specs) and the
JSON row's backend label."""

import json

import pytest

from repro.core.cli import main as cli_main

GOOD = """
file {"/etc/app.conf": content => "x" }
"""

NONDET = """
file {"/etc/ntp.conf": content => "server pool.example.org" }
package {"ntp": ensure => present }
"""


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "site.pp"
    path.write_text(NONDET)
    return path


class TestFlagValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--solver", "portfolio"),
            ("--solver", "portfolio:2"),
            ("--solver", "cdcl:2"),
            ("--solver", "external:/no/such/solver"),
            ("--solver", "dpll"),
            ("--solver", "portfolio:nope"),
        ],
    )
    def test_verify_rejects_bad_values(self, manifest, flags, capsys):
        assert cli_main(["verify", str(manifest), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--solver", "portfolio:4"),
            ("--solver", "cdcl:2"),
            ("--solver", "dpll"),
        ],
    )
    def test_verify_batch_rejects_bad_values(self, tmp_path, flags, capsys):
        (tmp_path / "good.pp").write_text(GOOD)
        code = cli_main(
            ["verify-batch", str(tmp_path), "--no-cache", *flags]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_external_spec_without_solver_is_exit_2(
        self, manifest, monkeypatch, capsys
    ):
        monkeypatch.setenv("PATH", "")
        code = cli_main(
            ["verify", str(manifest), "--solver", "external:auto"]
        )
        assert code == 2
        assert "kissat" in capsys.readouterr().err


class TestEndToEnd:
    def test_batch_json_rows_name_the_backend(self, tmp_path, capsys):
        (tmp_path / "good.pp").write_text(GOOD)
        report_path = tmp_path / "report.json"
        code = cli_main(
            [
                "verify-batch",
                str(tmp_path / "good.pp"),
                "--no-cache",
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 5
        (row,) = report["results"]
        assert row["solver_backend"] == "cdcl"
