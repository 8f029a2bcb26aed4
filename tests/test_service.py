"""The batch-verification service: schema, cache, orchestrator."""

import json
import multiprocessing
import os

import pytest

from repro import DeterminismOptions
from repro.service import (
    BatchReport,
    BatchVerifier,
    ManifestResult,
    VerdictCache,
    cache_key,
    discover_manifests,
    source_digest,
    verify_batch,
)
from repro.service import orchestrator as orch_mod

GOOD = """
file {"/etc/app.conf": content => "x" }
"""

ALSO_GOOD = """
file {"/etc/other.conf": content => "y" }
"""

NONDET = """
file {"/etc/apache2/sites-available/default.conf": content => "z" }
package {"apache2": ensure => present }
"""

BROKEN = """
file {"/etc/app.conf" content
"""


# -- schema -------------------------------------------------------------------


class TestSchema:
    def test_manifest_result_roundtrip(self):
        result = ManifestResult(
            name="a.pp",
            status="ok",
            deterministic=True,
            idempotent=True,
            resource_count=3,
            seconds=0.5,
            solver_seconds=0.2,
            sha256="ab" * 32,
            cache_key="cd" * 32,
        )
        assert ManifestResult.from_dict(result.to_dict()) == result

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ManifestResult.from_dict({"name": "x", "status": "ok", "zz": 1})

    def test_from_dict_rejects_bad_status(self):
        with pytest.raises(ValueError, match="status"):
            ManifestResult.from_dict({"name": "x", "status": "maybe"})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ValueError):
            ManifestResult.from_dict(["not", "a", "dict"])

    def test_batch_report_counts_and_json(self):
        report = BatchReport(
            results=[
                ManifestResult(name="a", status="ok"),
                ManifestResult(name="b", status="failed"),
                ManifestResult(name="c", status="error", error="boom"),
            ],
            workers=2,
        )
        assert report.ok_count == 1
        assert report.failed_count == 1
        assert report.error_count == 1
        payload = json.loads(report.to_json())
        assert payload["summary"]["manifests"] == 3
        restored = BatchReport.from_dict(payload)
        assert [r.name for r in restored.results] == ["a", "b", "c"]
        assert restored.result_for("c").error == "boom"


# -- cache keys ---------------------------------------------------------------


class TestCacheKey:
    def test_key_changes_with_source(self):
        assert cache_key(GOOD) != cache_key(ALSO_GOOD)

    def test_key_changes_with_options(self):
        assert cache_key(GOOD) != cache_key(
            GOOD, options=DeterminismOptions(use_pruning=False)
        )

    def test_key_changes_with_platform_and_node(self):
        assert cache_key(GOOD) != cache_key(GOOD, platform="centos")
        assert cache_key(GOOD) != cache_key(GOOD, node_name="web")

    def test_key_changes_with_version(self):
        assert cache_key(GOOD) != cache_key(GOOD, version="0.0.0-other")

    def test_key_changes_with_package_modeling_knobs(self):
        # --strict-packages changes verdicts, so it must change the key
        # (a strict run must never be served a verdict computed with
        # package synthesis on, and vice versa).
        assert cache_key(GOOD) != cache_key(GOOD, synthesize_packages=False)

    def test_key_is_stable(self):
        assert cache_key(GOOD) == cache_key(GOOD)

    def test_every_verdict_option_moves_both_keys(self):
        """``cache_key`` and the incremental store's options digest
        read the same options (``verdict_options``): every field but
        the store's own plumbing changes both keys, and the plumbing
        changes neither."""
        import dataclasses

        from repro.service.incremental import _det_options_digest

        def keys(options):
            return cache_key(GOOD, options=options), _det_options_digest(
                options
            )

        base = DeterminismOptions(incremental=False)
        base_keys = keys(base)
        for f in dataclasses.fields(DeterminismOptions):
            value = getattr(base, f.name)
            if isinstance(value, bool):
                other = not value
            elif isinstance(value, int):
                other = value + 1
            elif isinstance(value, str):
                other = value + "-other"
            else:
                other = {"timeout_seconds": 1.0, "incremental_dir": "d"}[
                    f.name
                ]
            changed = keys(dataclasses.replace(base, **{f.name: other}))
            if f.name in ("incremental", "incremental_dir"):
                assert changed == base_keys, f.name
            else:
                assert changed[0] != base_keys[0], f.name
                assert changed[1] != base_keys[1], f.name

    def test_source_digest_is_plain_sha256(self):
        import hashlib

        assert source_digest("abc") == hashlib.sha256(b"abc").hexdigest()


# -- the verdict cache on disk ------------------------------------------------


class TestVerdictCache:
    def test_miss_then_hit(self, tmp_path):
        cache = VerdictCache(tmp_path)
        key = cache_key(GOOD)
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, ManifestResult(name="a.pp", status="ok"))
        stored = cache.get(key)
        assert stored is not None and stored.status == "ok"
        assert cache.hits == 1
        assert len(cache) == 1

    def test_corrupted_entry_recovers_as_miss(self, tmp_path):
        cache = VerdictCache(tmp_path)
        key = cache_key(GOOD)
        cache.directory.mkdir(parents=True, exist_ok=True)
        entry = cache.directory / f"{key}.json"
        entry.write_text("{ not json at all", encoding="utf8")
        assert cache.get(key) is None
        assert cache.corrupted == 1
        assert cache.misses == 1
        assert not entry.exists(), "corrupted entry must be evicted"

    def test_entry_with_wrong_key_is_corrupted(self, tmp_path):
        cache = VerdictCache(tmp_path)
        key = cache_key(GOOD)
        cache.put(key, ManifestResult(name="a.pp", status="ok"))
        entry = cache.directory / f"{key}.json"
        payload = json.loads(entry.read_text())
        payload["key"] = "somebody-else"
        entry.write_text(json.dumps(payload), encoding="utf8")
        assert cache.get(key) is None
        assert cache.corrupted == 1

    @pytest.mark.parametrize("payload", ["[1, 2]", "null", '"a string"'])
    def test_valid_json_that_is_not_an_object_is_corrupted(
        self, tmp_path, payload
    ):
        cache = VerdictCache(tmp_path)
        key = cache_key(GOOD)
        cache.directory.mkdir(parents=True, exist_ok=True)
        (cache.directory / f"{key}.json").write_text(payload, encoding="utf8")
        assert cache.get(key) is None
        assert cache.corrupted == 1

    def test_unwritable_directory_degrades_to_cache_off(self, tmp_path):
        # The "directory" is actually a file, so every write fails;
        # put() must swallow that — a full batch must not die on it.
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        cache = VerdictCache(blocker / "cache")
        cache.put(cache_key(GOOD), ManifestResult(name="a", status="ok"))
        assert cache.write_errors == 1
        assert cache.get(cache_key(GOOD)) is None
        # ... and the degradation is visible in the batch report.
        report = BatchVerifier(cache=cache).verify_sources([("a.pp", GOOD)])
        assert report.cache.write_errors == 1
        assert report.results[0].ok

    def test_clear_sweeps_orphaned_temp_files(self, tmp_path):
        cache = VerdictCache(tmp_path)
        cache.put(cache_key(GOOD), ManifestResult(name="a", status="ok"))
        orphan = cache.directory / "deadbeef.tmp.12345"
        orphan.write_text("interrupted write")
        assert cache.clear() == 1
        assert not orphan.exists()

    def test_entry_with_bad_result_schema_is_corrupted(self, tmp_path):
        cache = VerdictCache(tmp_path)
        key = cache_key(GOOD)
        entry = cache.directory / f"{key}.json"
        cache.directory.mkdir(parents=True, exist_ok=True)
        entry.write_text(
            json.dumps({"key": key, "result": {"status": "nonsense"}}),
            encoding="utf8",
        )
        assert cache.get(key) is None
        assert cache.corrupted == 1

    def test_clear(self, tmp_path):
        cache = VerdictCache(tmp_path)
        cache.put(cache_key(GOOD), ManifestResult(name="a", status="ok"))
        cache.put(cache_key(ALSO_GOOD), ManifestResult(name="b", status="ok"))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_does_not_count_undeletable_entries(self, tmp_path):
        cache = VerdictCache(tmp_path)
        cache.put(cache_key(GOOD), ManifestResult(name="a", status="ok"))
        # A directory masquerading as an entry cannot be unlink()ed.
        (cache.directory / "stuck.json").mkdir()
        assert cache.clear() == 1


# -- discovery ----------------------------------------------------------------


class TestDiscovery:
    def test_directory_is_recursive_and_sorted(self, tmp_path):
        (tmp_path / "b.pp").write_text(GOOD)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.pp").write_text(GOOD)
        (tmp_path / "notes.txt").write_text("not a manifest")
        found = discover_manifests(tmp_path)
        assert [p.name for p in found] == ["b.pp", "a.pp"]
        assert found == sorted(found)

    def test_single_file(self, tmp_path):
        manifest = tmp_path / "one.pp"
        manifest.write_text(GOOD)
        assert discover_manifests(manifest) == [manifest]

    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_manifests(tmp_path / "nope")


# -- the orchestrator ---------------------------------------------------------


class TestBatchVerifier:
    def test_serial_batch_verdicts(self, tmp_path):
        verifier = BatchVerifier(cache=VerdictCache(tmp_path / "c"))
        report = verifier.verify_sources(
            [("good.pp", GOOD), ("nondet.pp", NONDET), ("broken.pp", BROKEN)]
        )
        assert [r.name for r in report.results] == [
            "good.pp",
            "nondet.pp",
            "broken.pp",
        ]
        assert report.result_for("good.pp").ok
        assert report.result_for("nondet.pp").status == "failed"
        assert report.result_for("nondet.pp").deterministic is False
        assert report.result_for("broken.pp").status == "error"
        assert report.ok_count == 1
        assert report.failed_count == 1
        assert report.error_count == 1
        assert report.cache.misses == 3 and report.cache.hits == 0

    def test_second_run_hits_cache_without_solving(self, tmp_path):
        cache = VerdictCache(tmp_path / "c")
        verifier = BatchVerifier(cache=cache)
        sources = [("good.pp", GOOD), ("nondet.pp", NONDET)]
        first = verifier.verify_sources(sources)
        assert first.cache.misses == 2
        second = verifier.verify_sources(sources)
        assert second.cache.hits == 2 and second.cache.misses == 0
        assert all(r.cached for r in second.results)
        assert second.solver_seconds == 0.0
        # Verdicts survive the round trip through the cache.
        assert second.result_for("good.pp").ok
        assert second.result_for("nondet.pp").status == "failed"

    def test_budget_exhaustion_is_reported_and_cached(self, tmp_path):
        # A blown analysis budget is a function of (manifest, options),
        # so it is a reportable, cacheable verdict — the most expensive
        # manifest in a fleet must not re-burn its budget every run.
        options = DeterminismOptions(max_branches=1)
        verifier = BatchVerifier(
            options=options, cache=VerdictCache(tmp_path / "c")
        )
        report = verifier.verify_sources([("nondet.pp", NONDET)])
        row = report.results[0]
        assert row.status == "error"
        assert "branches" in row.error
        assert "internal failure" not in row.error
        second = verifier.verify_sources([("nondet.pp", NONDET)])
        assert second.cache.hits == 1

    def test_wall_clock_timeouts_are_not_cached(self, tmp_path):
        # Unlike the exploration budget, a wall-clock timeout depends
        # on machine load — a momentarily slow run must not freeze into
        # a permanent cached error.
        options = DeterminismOptions(timeout_seconds=1e-9)
        cache = VerdictCache(tmp_path / "c")
        verifier = BatchVerifier(options=options, cache=cache)
        report = verifier.verify_sources([("nondet.pp", NONDET)])
        row = report.results[0]
        assert row.status == "error"
        assert "timed out" in row.error
        assert row.error_transient
        assert len(cache) == 0
        second = verifier.verify_sources([("nondet.pp", NONDET)])
        assert second.cache.hits == 0 and not second.results[0].cached

    def test_error_verdicts_are_cached_too(self, tmp_path):
        # A parse error is as much a function of the source as a real
        # verdict; re-running an unchanged broken fleet is also fast.
        verifier = BatchVerifier(cache=VerdictCache(tmp_path / "c"))
        verifier.verify_sources([("broken.pp", BROKEN)])
        second = verifier.verify_sources([("broken.pp", BROKEN)])
        assert second.cache.hits == 1
        assert second.result_for("broken.pp").status == "error"

    def test_strict_packages_run_is_not_served_a_lenient_verdict(
        self, tmp_path
    ):
        source = 'package {"no-such-pkg-xyz": ensure => present }\n'
        cache = VerdictCache(tmp_path / "c")
        lenient = BatchVerifier(cache=cache, synthesize_packages=True)
        assert lenient.verify_sources([("m.pp", source)]).results[0].ok
        strict = BatchVerifier(cache=cache, synthesize_packages=False)
        report = strict.verify_sources([("m.pp", source)])
        assert report.cache.hits == 0, "different modeling, different key"
        assert report.results[0].status == "error"

    def test_internal_failures_are_not_cached(self, tmp_path, monkeypatch):
        from repro.core import pipeline as pipeline_mod

        def explode(self, source, name="<manifest>", compiled=None):
            raise RuntimeError("transient breakage")

        monkeypatch.setattr(pipeline_mod.Rehearsal, "verify", explode)
        cache = VerdictCache(tmp_path / "c")
        report = BatchVerifier(cache=cache).verify_sources([("m.pp", GOOD)])
        assert report.results[0].status == "error"
        assert "internal failure" in report.results[0].error
        assert len(cache) == 0, "circumstantial errors must be retried"

    def test_hit_is_relabeled_for_new_path(self, tmp_path):
        # Content-addressed: the same source under a different name is
        # still a hit, reported under the *new* name.
        verifier = BatchVerifier(cache=VerdictCache(tmp_path / "c"))
        verifier.verify_sources([("old-name.pp", GOOD)])
        report = verifier.verify_sources([("new-name.pp", GOOD)])
        assert report.cache.hits == 1
        assert report.results[0].name == "new-name.pp"
        assert report.results[0].cached

    def test_cache_disabled(self):
        verifier = BatchVerifier(cache=None)
        report = verifier.verify_sources([("good.pp", GOOD)] )
        assert not report.cache.enabled
        assert report.cache.hits == 0 and report.cache.misses == 0
        second = verifier.verify_sources([("good.pp", GOOD)])
        assert not second.results[0].cached

    def test_corrupted_entry_is_recomputed_and_counted(self, tmp_path):
        cache = VerdictCache(tmp_path / "c")
        verifier = BatchVerifier(cache=cache)
        verifier.verify_sources([("good.pp", GOOD)])
        key = cache_key(GOOD)
        entry = cache.directory / f"{key}.json"
        entry.write_text("garbage", encoding="utf8")
        report = verifier.verify_sources([("good.pp", GOOD)])
        assert report.cache.corrupted == 1
        assert report.cache.misses == 1
        assert report.results[0].ok and not report.results[0].cached
        # ... and the recomputed verdict was re-cached.
        third = verifier.verify_sources([("good.pp", GOOD)])
        assert third.cache.hits == 1

    def test_truncated_entry_mid_batch_pins_full_ledger(self, tmp_path):
        # A cache entry cut off mid-JSON (torn write, full disk) must
        # cost exactly one recompute — zero error rows — while the
        # rest of the batch is served from the cache.  Pin the whole
        # BatchReport ledger.
        cache = VerdictCache(tmp_path / "c")
        verifier = BatchVerifier(cache=cache)
        sources = [("good.pp", GOOD), ("also.pp", ALSO_GOOD)]
        verifier.verify_sources(sources)
        entry = cache.directory / f"{cache_key(GOOD)}.json"
        full = entry.read_text(encoding="utf8")
        entry.write_text(full[: len(full) // 2], encoding="utf8")

        report = verifier.verify_sources(sources)
        assert [r.status for r in report.results] == ["ok", "ok"]
        assert report.error_count == 0
        assert report.cache.corrupted == 1
        assert report.cache.misses == 1  # only the truncated entry
        assert report.cache.hits == 1  # the intact one still serves
        assert report.cache.read_errors == 0
        assert report.cache.write_errors == 0
        good, also = report.results
        assert not good.cached, "truncated entry must be recomputed"
        assert also.cached
        # The recomputed verdict replaced the truncated entry.
        assert verifier.verify_sources(sources).cache.hits == 2

    def test_parallel_batch_matches_serial(self, tmp_path):
        sources = [
            ("good.pp", GOOD),
            ("also.pp", ALSO_GOOD),
            ("nondet.pp", NONDET),
            ("broken.pp", BROKEN),
        ]
        serial = BatchVerifier(cache=None).verify_sources(sources)
        parallel = BatchVerifier(cache=None, workers=3).verify_sources(sources)
        assert parallel.workers == 3
        for left, right in zip(serial.results, parallel.results):
            assert (left.name, left.status, left.deterministic) == (
                right.name,
                right.status,
                right.deterministic,
            )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchVerifier(workers=0)

    def test_verify_paths_and_directory(self, tmp_path):
        (tmp_path / "a.pp").write_text(GOOD)
        (tmp_path / "b.pp").write_text(NONDET)
        report = BatchVerifier(cache=None).verify_directory(tmp_path)
        assert len(report.results) == 2
        assert report.result_for(str(tmp_path / "a.pp")).ok

    def test_unreadable_manifest_is_one_error_row(self, tmp_path):
        (tmp_path / "a.pp").write_text(GOOD)
        (tmp_path / "bad.pp").write_bytes(b"\xff\xfe not utf8 \xff")
        report = BatchVerifier(cache=None).verify_directory(tmp_path)
        assert report.result_for(str(tmp_path / "a.pp")).ok
        bad = report.result_for(str(tmp_path / "bad.pp"))
        assert bad.status == "error"
        assert "cannot read manifest" in bad.error

    def test_identical_sources_are_verified_once(self, tmp_path):
        # A fleet sharing one template: one solver run, N rows.
        calls = []
        real = orch_mod._verify_one

        def counting(job):
            calls.append(job.name)
            return real(job)

        import unittest.mock

        with unittest.mock.patch.object(orch_mod, "_verify_one", counting):
            report = BatchVerifier(cache=None).verify_sources(
                [("host1.pp", GOOD), ("host2.pp", GOOD), ("host3.pp", GOOD)]
            )
        assert len(calls) == 1
        assert [r.name for r in report.results] == [
            "host1.pp",
            "host2.pp",
            "host3.pp",
        ]
        assert all(r.ok for r in report.results)
        # Aggregate solver time is not triple-counted for duplicates,
        # and dedup copies are labeled as such, not as solver runs.
        assert report.solver_seconds == report.results[0].solver_seconds
        assert [r.deduplicated for r in report.results] == [
            False,
            True,
            True,
        ]

    def test_pool_broken_during_submission_degrades_to_error_rows(
        self, monkeypatch
    ):
        # A worker crash can break the pool while jobs are still being
        # submitted; submit() itself then raises.  Everything must
        # still come back as rows, never as an exception.
        from concurrent.futures.process import BrokenProcessPool

        class AlwaysBrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                raise BrokenProcessPool("pool is toast")

        monkeypatch.setattr(
            orch_mod, "ProcessPoolExecutor", AlwaysBrokenPool
        )
        report = BatchVerifier(cache=None, workers=2).verify_sources(
            [("a.pp", GOOD), ("b.pp", ALSO_GOOD)]
        )
        assert [r.status for r in report.results] == ["error", "error"]
        assert all(
            "worker process died" in r.error for r in report.results
        )

    def test_unreadable_cache_storage_is_counted(self, tmp_path):
        cache = VerdictCache(tmp_path)
        key = cache_key(GOOD)
        cache.put(key, ManifestResult(name="a", status="ok"))
        entry = cache.directory / f"{key}.json"
        entry.unlink()
        entry.mkdir()  # read_text now raises IsADirectoryError
        assert cache.get(key) is None
        assert cache.read_errors == 1 and cache.misses == 1

    def test_sys_exit_in_the_pipeline_is_an_error_row(self, monkeypatch):
        import sys

        from repro.core import pipeline as pipeline_mod

        def bail(self, source, name="<manifest>", compiled=None):
            sys.exit(3)

        monkeypatch.setattr(pipeline_mod.Rehearsal, "verify", bail)
        report = BatchVerifier(cache=None).verify_sources([("m.pp", GOOD)])
        assert report.results[0].status == "error"
        assert "SystemExit" in report.results[0].error

    def test_verify_batch_convenience(self, tmp_path):
        (tmp_path / "a.pp").write_text(GOOD)
        report = verify_batch(
            tmp_path, workers=1, cache_dir=tmp_path / "cache"
        )
        assert report.ok_count == 1
        second = verify_batch(
            tmp_path, workers=1, cache_dir=tmp_path / "cache"
        )
        assert second.cache.hits == 1

    def test_verify_batch_accepts_path_list(self, tmp_path):
        a = tmp_path / "a.pp"
        a.write_text(GOOD)
        report = verify_batch([a], use_cache=False)
        assert len(report.results) == 1 and report.results[0].ok


# -- worker-crash isolation ---------------------------------------------------

_REAL_VERIFY_ONE = orch_mod._verify_one


def _crash_prone_verify_one(job):
    """Stand-in worker that hard-kills its process for marked sources —
    simulating a segfault/OOM kill that no try/except can catch."""
    if "CRASH-ME" in job.source:
        os._exit(13)
    return _REAL_VERIFY_ONE(job)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched worker function requires fork inheritance",
)
class TestWorkerCrashIsolation:
    def test_one_dead_worker_does_not_sink_the_batch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(orch_mod, "_verify_one", _crash_prone_verify_one)
        verifier = BatchVerifier(
            cache=VerdictCache(tmp_path / "c"), workers=2
        )
        report = verifier.verify_sources(
            [
                ("good.pp", GOOD),
                ("killer.pp", "# CRASH-ME\n" + GOOD),
                ("also.pp", ALSO_GOOD),
            ]
        )
        assert [r.name for r in report.results] == [
            "good.pp",
            "killer.pp",
            "also.pp",
        ]
        killer = report.result_for("killer.pp")
        assert killer.status == "error"
        assert "worker process died" in killer.error
        # The innocent manifests still verified.
        assert report.result_for("good.pp").ok
        assert report.result_for("also.pp").ok

    def test_crash_results_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orch_mod, "_verify_one", _crash_prone_verify_one)
        cache = VerdictCache(tmp_path / "c")
        verifier = BatchVerifier(cache=cache, workers=2)
        source = "# CRASH-ME\n" + GOOD
        verifier.verify_sources([("killer.pp", source), ("good.pp", GOOD)])
        # The good verdict was cached, the crash placeholder was not.
        assert len(cache) == 1
        report = verifier.verify_sources(
            [("killer.pp", source), ("good.pp", GOOD)]
        )
        assert report.result_for("good.pp").cached
        assert report.result_for("killer.pp").status == "error"

    def test_mid_batch_death_costs_exactly_one_error_row(
        self, tmp_path, monkeypatch
    ):
        # The full BatchReport ledger for a worker dying mid-batch:
        # one error row for the killer, every other manifest verified,
        # and the cache sees exactly one store per surviving verdict.
        monkeypatch.setattr(orch_mod, "_verify_one", _crash_prone_verify_one)
        cache = VerdictCache(tmp_path / "c")
        verifier = BatchVerifier(cache=cache, workers=2)
        sources = [
            ("one.pp", GOOD),
            ("killer.pp", "# CRASH-ME\n" + GOOD),
            ("two.pp", ALSO_GOOD),
            ("three.pp", NONDET),
        ]
        report = verifier.verify_sources(sources)
        assert len(report.results) == 4
        assert report.error_count == 1
        assert report.ok_count == 2
        assert report.failed_count == 1  # NONDET verified, negatively
        assert report.cache.hits == 0
        assert report.cache.misses == 4
        assert report.cache.corrupted == 0
        killer = report.result_for("killer.pp")
        assert killer.status == "error"
        assert "worker process died" in killer.error
        # The three real verdicts were cached; the crash row was not.
        assert len(cache) == 3
