"""The ``rehearsal verify-batch`` CLI: exit codes, reports, caching."""

import json

import pytest

from repro.core.cli import main as cli_main

GOOD = """
file {"/etc/app.conf": content => "x" }
"""

NONDET = """
file {"/etc/apache2/sites-available/default.conf": content => "z" }
package {"apache2": ensure => present }
"""

BROKEN = """
file {"/etc/app.conf" content
"""


@pytest.fixture
def fleet(tmp_path):
    """A directory of manifests plus a private cache directory."""
    manifests = tmp_path / "manifests"
    manifests.mkdir()
    (manifests / "good.pp").write_text(GOOD)
    (manifests / "nondet.pp").write_text(NONDET)
    cache_dir = tmp_path / "cache"
    return manifests, cache_dir


def batch(*argv):
    return cli_main(["verify-batch", *map(str, argv)])


class TestExitCodes:
    def test_zero_when_all_verdicts_land(self, fleet, capsys):
        manifests, cache_dir = fleet
        code = batch(manifests, "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert "2 manifests: 1 ok, 1 failed, 0 errors" in out

    def test_strict_fails_on_failed_verdicts(self, fleet):
        manifests, cache_dir = fleet
        assert batch(manifests, "--cache-dir", cache_dir, "--strict") == 1

    def test_strict_passes_on_clean_fleet(self, tmp_path):
        (tmp_path / "good.pp").write_text(GOOD)
        assert batch(tmp_path, "--no-cache", "--strict") == 0

    def test_one_on_error_manifest(self, tmp_path, capsys):
        (tmp_path / "broken.pp").write_text(BROKEN)
        code = batch(tmp_path, "--no-cache")
        out = capsys.readouterr().out
        assert code == 1
        assert "1 errors" in out

    def test_two_on_missing_target(self, tmp_path, capsys):
        code = batch(tmp_path / "nope")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_two_on_directory_without_manifests(self, tmp_path, capsys):
        code = batch(tmp_path)
        assert code == 2
        assert "no *.pp manifests" in capsys.readouterr().err

    def test_two_on_bad_worker_count(self, fleet, capsys):
        manifests, _ = fleet
        assert batch(manifests, "--no-cache", "--workers", "0") == 2
        assert "--workers" in capsys.readouterr().err


class TestCacheFlow:
    def test_second_run_is_all_hits(self, fleet, capsys):
        manifests, cache_dir = fleet
        batch(manifests, "--cache-dir", cache_dir)
        capsys.readouterr()
        code = batch(manifests, "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert "cache 2 hit(s) / 0 miss(es)" in out
        assert "solver 0.000s" in out

    def test_no_cache_never_hits(self, fleet, capsys):
        manifests, cache_dir = fleet
        batch(manifests, "--cache-dir", cache_dir, "--no-cache")
        capsys.readouterr()
        batch(manifests, "--cache-dir", cache_dir, "--no-cache")
        out = capsys.readouterr().out
        assert "cache 0 hit(s) / 0 miss(es)" in out
        assert not cache_dir.exists(), "--no-cache must not write the cache"

    def test_editing_a_manifest_invalidates_only_it(self, fleet, capsys):
        manifests, cache_dir = fleet
        batch(manifests, "--cache-dir", cache_dir)
        (manifests / "good.pp").write_text(
            GOOD + '\nfile {"/etc/second.conf": content => "y" }\n'
        )
        capsys.readouterr()
        batch(manifests, "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert "cache 1 hit(s) / 1 miss(es)" in out


class TestJsonReport:
    def test_json_written_to_file(self, fleet, tmp_path):
        manifests, cache_dir = fleet
        out_path = tmp_path / "report.json"
        batch(manifests, "--cache-dir", cache_dir, "--json", out_path)
        payload = json.loads(out_path.read_text())
        assert payload["summary"] == {
            "manifests": 2,
            "ok": 1,
            "failed": 1,
            "errors": 0,
            "solver_seconds": payload["summary"]["solver_seconds"],
        }
        names = {r["name"] for r in payload["results"]}
        assert names == {
            str(manifests / "good.pp"),
            str(manifests / "nondet.pp"),
        }
        statuses = {
            r["name"].rsplit("/", 1)[-1]: r["status"]
            for r in payload["results"]
        }
        assert statuses == {"good.pp": "ok", "nondet.pp": "failed"}

    def test_unwritable_json_path_fails_fast(self, fleet, capsys):
        manifests, _ = fleet
        code = batch(
            manifests, "--no-cache", "--json", "/nonexistent/dir/report.json"
        )
        assert code == 2
        assert "cannot write --json" in capsys.readouterr().err

    def test_json_path_that_is_a_directory_fails_fast(
        self, fleet, tmp_path, capsys
    ):
        manifests, _ = fleet
        target = tmp_path / "adir"
        target.mkdir()
        code = batch(manifests, "--no-cache", "--json", target)
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_failed_json_precheck_leaves_no_file_behind(
        self, fleet, tmp_path
    ):
        _, _ = fleet
        out_path = tmp_path / "report.json"
        # Batch aborts before verification (bad target), and the
        # precheck must not have created the report file.
        assert batch(tmp_path / "nope", "--json", out_path) == 2
        assert not out_path.exists()

    def test_json_to_stdout(self, fleet, capsys):
        manifests, cache_dir = fleet
        batch(manifests, "--cache-dir", cache_dir, "--json", "-")
        out = capsys.readouterr().out
        start = out.index("{")
        payload = json.loads(out[start:])
        assert payload["summary"]["manifests"] == 2

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


class TestDispatch:
    def test_explicit_verify_subcommand(self, tmp_path, capsys):
        manifest = tmp_path / "good.pp"
        manifest.write_text(GOOD)
        assert cli_main(["verify", str(manifest)]) == 0
        assert "DETERMINISTIC" in capsys.readouterr().out

    def test_single_verify_missing_manifest_exits_2(self, tmp_path, capsys):
        code = cli_main(["verify", str(tmp_path / "typo.pp")])
        assert code == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_legacy_bare_manifest_still_works(self, tmp_path, capsys):
        manifest = tmp_path / "good.pp"
        manifest.write_text(GOOD)
        assert cli_main([str(manifest)]) == 0
        assert "DETERMINISTIC" in capsys.readouterr().out

    def test_multiple_targets_mix_files_and_dirs(self, fleet, tmp_path, capsys):
        manifests, cache_dir = fleet
        extra = tmp_path / "extra.pp"
        extra.write_text(GOOD)
        code = batch(manifests, extra, "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert "3 manifests" in out

    def test_overlapping_targets_are_deduplicated(self, fleet, capsys):
        manifests, cache_dir = fleet
        code = batch(manifests, manifests / "good.pp", "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert "2 manifests: 1 ok, 1 failed" in out

    def test_budget_exhaustion_is_an_error_row_not_a_crash(
        self, fleet, capsys
    ):
        manifests, _ = fleet
        code = batch(manifests / "nondet.pp", "--no-cache", "--timeout", "1e-9")
        out = capsys.readouterr().out
        assert code == 1
        assert "1 errors" in out

    def test_cache_clear_subcommand(self, fleet, capsys):
        manifests, cache_dir = fleet
        batch(manifests, "--cache-dir", cache_dir)
        capsys.readouterr()
        assert cli_main(["cache", "--cache-dir", str(cache_dir), "clear"]) == 0
        assert "removed 2 cached verdict(s)" in capsys.readouterr().out
        code = batch(manifests, "--cache-dir", cache_dir)
        assert "cache 0 hit(s) / 2 miss(es)" in capsys.readouterr().out
        assert code == 0


    @pytest.mark.parametrize(
        "targets, expected",
        [
            ((), "verdict cache: 0 entries,"),
            (("good.pp",), "verdict cache: 1 entry,"),
            (("good.pp", "nondet.pp"), "verdict cache: 2 entries,"),
        ],
        ids=["empty", "one", "two"],
    )
    def test_cache_stats_counts_entries(self, fleet, capsys, targets, expected):
        manifests, cache_dir = fleet
        if targets:
            batch(*(manifests / t for t in targets), "--cache-dir", cache_dir)
        capsys.readouterr()
        assert cli_main(["cache", "--cache-dir", str(cache_dir), "stats"]) == 0
        assert expected in capsys.readouterr().out

    def test_cache_clear_is_gone(self, fleet, capsys):
        # ``cache-clear`` is no subcommand and names no manifest, so the
        # CLI names it as an unknown command and lists the real ones.
        _, cache_dir = fleet
        code = cli_main(["cache-clear", "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: unknown command 'cache-clear'" in err
        assert "verify-batch" in err and "cache" in err

    def test_missing_pp_still_reads_as_a_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        # A first word ending in .pp is a manifest path even when no
        # such file exists: the error is about the file, not a command.
        monkeypatch.chdir(tmp_path)
        code = cli_main(["missing.pp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read manifest" in err
        assert "unknown command" not in err

    def test_corpus_manifest_without_verify_word(self, capsys):
        from repro.corpus import manifest_dir

        code = cli_main([str(manifest_dir() / "ntp-fixed.pp")])
        assert code == 0
        assert "DETERMINISTIC" in capsys.readouterr().out

    def test_existing_file_without_suffix_reads_as_a_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "site").write_text(GOOD)
        assert cli_main(["site"]) == 0
        assert "DETERMINISTIC" in capsys.readouterr().out


class TestCorpusBatch:
    """The acceptance scenario over the real §6 corpus (serial, so the
    suite stays fast on small machines; parallel equivalence is covered
    in test_service.py)."""

    def test_corpus_verdicts_and_cache(self, tmp_path, capsys):
        from repro.corpus import NONDET_NAMES, manifest_dir

        cache_dir = tmp_path / "cache"
        code = batch(manifest_dir(), "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert "19 manifests: 13 ok, 6 failed, 0 errors" in out
        code = batch(manifest_dir(), "--cache-dir", cache_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert "cache 19 hit(s) / 0 miss(es)" in out
        assert "solver 0.000s" in out
        for name in NONDET_NAMES:
            assert f"{name}.pp" in out
