"""The persistent incremental store (docs/incremental.md).

The contract under test: an incremental run produces byte-identical
verdicts, witnesses, and race localizations to a from-scratch run —
with the store hot, cold, corrupted, or version-rotated — and a warm
re-verify actually reuses recorded work (the counters prove it).
"""

import json
import os
import subprocess
import sys

import pytest

from repro import DeterminismOptions, Rehearsal
from repro.corpus import BENCHMARK_NAMES, FIXED_VARIANTS, load_source
from repro.service.incremental import (
    IncrementalStore,
    check_idempotence_incremental,
    default_store_path,
    expr_digest,
    open_store,
    reset_store_registry,
)
from repro.service.schema import ManifestResult

ALL_MANIFESTS = list(BENCHMARK_NAMES) + sorted(FIXED_VARIANTS)

#: Row fields that legitimately differ between an incremental and a
#: from-scratch run: timings, cache bookkeeping, and the reuse
#: counters themselves (they describe the run, not the verdict).
RUN_CIRCUMSTANCE_FIELDS = (
    "seconds",
    "solver_seconds",
    "cached",
    "cache_key",
    "subtree_reuse_hits",
    "cnf_cache_hits",
    "commute_cache_hits",
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test gets its own store handles; close them afterwards so
    temp directories can be deleted on every platform."""
    reset_store_registry()
    yield
    reset_store_registry()


def normalized_row(report, name: str) -> dict:
    row = ManifestResult.from_report(report).to_dict()
    for field in RUN_CIRCUMSTANCE_FIELDS:
        row.pop(field, None)
    row["name"] = name
    return row


def verify(source: str, options: DeterminismOptions, name="m.pp"):
    return Rehearsal(options=options).verify(source, name=name)


def scratch_options() -> DeterminismOptions:
    # Explicit, so the suite stays honest under REHEARSAL_INCREMENTAL=1
    # (the CI matrix cell that forces the store on).
    return DeterminismOptions(incremental=False)


def incremental_options(directory) -> DeterminismOptions:
    return DeterminismOptions(incremental=True, incremental_dir=str(directory))


# -- fingerprint stability ----------------------------------------------------


class TestStructuralDigest:
    def test_expr_digest_tracks_program_content(self):
        from repro.fs import creat

        assert expr_digest(creat("/a", "one")) == expr_digest(
            creat("/a", "one")
        )
        assert expr_digest(creat("/a", "one")) != expr_digest(
            creat("/a", "two")
        )


# -- the store itself ---------------------------------------------------------


class TestIncrementalStore:
    def test_round_trip_and_batch(self, tmp_path):
        store = IncrementalStore(tmp_path / "s.sqlite")
        store.put("cnf", "k1", "v1")
        store.put_many("cnf", [("k2", "v2"), ("k3", "v3")])
        assert [store.get("cnf", k) for k in ("k1", "k2", "k3", "nope")] == [
            "v1",
            "v2",
            "v3",
            None,
        ]
        assert store.get("other-section", "k1") is None
        store.close()

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = IncrementalStore(path)
        store.put_json("idem", "k", {"x": 1})
        store.close()
        again = IncrementalStore(path)
        assert again.get_json("idem", "k") == {"x": 1}
        again.close()

    def test_version_rotation_empties_the_store(self, tmp_path, monkeypatch):
        import sqlite3

        import repro.service.incremental as inc_mod
        from repro import __version__

        path = tmp_path / "s.sqlite"
        store = IncrementalStore(path)
        store.put("cnf", "k", "v")
        store.close()
        monkeypatch.setattr(
            inc_mod, "STORE_VERSION", inc_mod.STORE_VERSION + 1
        )
        rotated = IncrementalStore(path)
        assert rotated.get("cnf", "k") is None
        assert not rotated.disabled
        rotated.close()

        # A version-1 store, written while the commutativity-pair and
        # exploration-subtree sections existed, opens empty.
        monkeypatch.undo()
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'version'",
            (f"1:{__version__}",),
        )
        conn.executemany(
            "INSERT INTO entries (section, key, value, updated_at) "
            "VALUES (?, ?, ?, 0)",
            [("commute", "a:b", "1"), ("explore", "k", "{}")],
        )
        conn.commit()
        conn.close()
        old = IncrementalStore(path)
        assert old.stats()["entries"] == 0
        old.close()

    def test_store_holds_only_whole_result_sections(self, tmp_path):
        opts = incremental_options(tmp_path)
        for name in ("irc-fixed", "ntp-fixed"):
            assert verify(load_source(name), opts, name).ok
        # irc-fixed reaches exploration: two or more resources survive
        # elimination.
        irc = verify(load_source("irc-fixed"), scratch_options())
        assert irc.determinism.stats.resources_after_elimination >= 2
        sections = open_store(str(tmp_path)).stats()["sections"]
        assert set(sections) == {"det_root", "idem_full"}

    def test_garbage_file_is_recreated(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\x00\xff")
        store = IncrementalStore(path)
        assert not store.disabled
        store.put("cnf", "k", "v")
        assert store.get("cnf", "k") == "v"
        store.close()

    def test_unwritable_location_disables_not_crashes(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        store = IncrementalStore(blocker / "s.sqlite")
        assert store.disabled
        assert store.get("cnf", "k") is None
        store.put("cnf", "k", "v")  # must not raise
        assert store.stats()["entries"] == 0
        assert store.clear() == 0
        assert store.gc(0) == 0

    def test_gc_evicts_oldest_first(self, tmp_path):
        store = IncrementalStore(tmp_path / "s.sqlite")
        store.put("cnf", "old", "x" * 100)
        store.put("cnf", "new", "y" * 100)
        removed = store.gc(150)
        assert removed == 1
        assert store.get("cnf", "old") is None
        assert store.get("cnf", "new") is not None
        store.close()

    def test_default_store_path_honors_cache_dir_env(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REHEARSAL_CACHE_DIR", str(tmp_path))
        assert default_store_path(None).parent == tmp_path

    def test_open_store_registry_reuses_handles(self, tmp_path):
        a = open_store(str(tmp_path))
        b = open_store(str(tmp_path))
        assert a is b


# -- verdict parity: incremental vs. from-scratch -----------------------------


class TestCorpusParity:
    @pytest.mark.parametrize("name", ALL_MANIFESTS)
    def test_rows_byte_identical_cold_and_warm(self, name, tmp_path):
        source = load_source(name)
        opts = incremental_options(tmp_path)
        baseline = normalized_row(
            verify(source, scratch_options(), name), name
        )
        cold = normalized_row(verify(source, opts, name), name)
        reset_store_registry()  # force re-open: simulates a new process
        warm_report = verify(source, opts, name)
        warm = normalized_row(warm_report, name)
        assert cold == baseline
        assert warm == baseline
        # The warm run actually reused the store, it didn't just agree.
        stats = warm_report.determinism.stats
        assert stats.subtree_reuse_hits >= 1
        assert stats.commute_cache_hits == stats.cnf_cache_hits == 0

    def test_nondet_race_localization_is_identical(self, tmp_path):
        source = load_source("ntp-nondet")
        opts = incremental_options(tmp_path)
        base = verify(source, scratch_options()).determinism
        verify(source, opts)
        reset_store_registry()
        served = verify(source, opts).determinism
        assert served.stats.subtree_reuse_hits >= 1
        assert not served.deterministic
        assert str(served.race.resource_a) == str(base.race.resource_a)
        assert str(served.race.resource_b) == str(base.race.resource_b)
        assert str(served.race.path) == str(base.race.path)
        assert served.witness_fs == base.witness_fs
        assert served.witness_orders == base.witness_orders
        assert served.witness_outcomes == base.witness_outcomes


    @pytest.mark.parametrize(
        "name", [n for n in BENCHMARK_NAMES if n.endswith("-nondet")]
    )
    def test_warm_race_report_equals_cold(self, name, tmp_path):
        """A served ``det_root`` entry rebuilds the whole race report,
        witness-replay paths and error-status flag included, and
        records nothing beyond the report's fields."""
        import dataclasses
        import sqlite3

        source = load_source(name)
        opts = incremental_options(tmp_path)
        cold = verify(source, opts, name)
        reset_store_registry()
        warm = verify(source, opts, name)
        assert warm.determinism.stats.subtree_reuse_hits >= 1
        assert normalized_row(warm, name) == normalized_row(cold, name)
        assert dataclasses.asdict(warm.determinism.race) == dataclasses.asdict(
            cold.determinism.race
        )
        reset_store_registry()
        conn = sqlite3.connect(str(default_store_path(str(tmp_path))))
        rows = conn.execute(
            "SELECT value FROM entries WHERE section = 'det_root'"
        ).fetchall()
        conn.close()
        assert [set(json.loads(v)["race"]) for (v,) in rows] == [
            {"a", "b", "path", "core_paths", "ok_divergence"}
        ]


# -- degradation: a damaged store can cost time, never a verdict --------------


class TestDegradation:
    def test_corrupted_store_file_still_verifies_correctly(self, tmp_path):
        source = load_source("ntp-fixed")
        opts = incremental_options(tmp_path)
        baseline = normalized_row(verify(source, scratch_options()), "m")
        verify(source, opts)
        reset_store_registry()
        default_store_path(str(tmp_path)).write_bytes(b"\x00garbage\xff" * 64)
        assert normalized_row(verify(source, opts), "m") == baseline

    def test_store_deleted_mid_run_still_verifies(self, tmp_path):
        source = load_source("bind")
        opts = incremental_options(tmp_path)
        verify(source, opts)
        # The open handle survives the unlink (POSIX); the next run
        # must neither crash nor serve anything wrong.
        default_store_path(str(tmp_path)).unlink()
        baseline = normalized_row(verify(source, scratch_options()), "m")
        assert normalized_row(verify(source, opts), "m") == baseline

    def test_damaged_entries_are_misses_not_crashes(self, tmp_path):
        source = load_source("clamav")
        opts = incremental_options(tmp_path)
        baseline = normalized_row(verify(source, scratch_options()), "m")
        verify(source, opts)
        store = open_store(str(tmp_path))
        rows = [(section, "not json {") for section in ("idem_full", "det_root")]
        with store._lock:
            store._conn.executemany(
                "UPDATE entries SET value = ? WHERE section = ?",
                [(v, s) for s, v in rows],
            )
            store._conn.commit()
        reset_store_registry()
        assert normalized_row(verify(source, opts), "m") == baseline


# -- incremental idempotence --------------------------------------------------


class TestIncrementalIdempotence:
    def test_matches_scratch_on_commuting_catalog(self, tmp_path):
        from repro.analysis.idempotence import check_idempotence

        source = "\n".join(
            f"file {{ '/etc/app/c{i}.cfg': content => 'v{i}' }}"
            for i in range(6)
        )
        tool = Rehearsal()
        graph, programs = tool.compile(source)
        opts = incremental_options(tmp_path)
        scratch = check_idempotence(graph, programs)
        cold = check_idempotence_incremental(graph, programs, opts)
        warm = check_idempotence_incremental(graph, programs, opts)
        assert cold.idempotent == scratch.idempotent
        assert warm.idempotent == scratch.idempotent
        assert cold.witness_fs == scratch.witness_fs
        assert warm.witness_fs == scratch.witness_fs

    def test_non_idempotent_resource_falls_back_exactly(self, tmp_path):
        # One resource is a toggle — not idempotent — so the exact
        # query must reproduce the scratch witness, cold and from the
        # recorded idem_full entry.
        from repro.digraph import DiGraph

        from repro.analysis.idempotence import check_idempotence
        from repro.fs import Path, creat, file_, ite, rm

        p = Path.of("/toggle")
        programs = {
            "toggle": ite(file_(p), rm(p), creat(p, "x")),
            "plain": creat("/other", "y"),
        }
        graph = DiGraph()
        graph.add_nodes_from(programs)
        opts = incremental_options(tmp_path)
        scratch = check_idempotence(graph, programs)
        assert not scratch.idempotent
        cold = check_idempotence_incremental(graph, programs, opts)
        warm = check_idempotence_incremental(graph, programs, opts)
        for result in (cold, warm):
            assert result.idempotent == scratch.idempotent
            assert result.witness_fs == scratch.witness_fs

    def test_shared_path_catalog_matches_scratch(self, tmp_path):
        from repro.analysis.idempotence import check_idempotence

        source = (
            "file { '/etc/x.conf': content => 'a' }\n"
            "package { 'x': ensure => installed }\n"
        )
        tool = Rehearsal()
        graph, programs = tool.compile(source)
        opts = incremental_options(tmp_path)
        scratch = check_idempotence(graph, programs)
        cold = check_idempotence_incremental(graph, programs, opts)
        warm = check_idempotence_incremental(graph, programs, opts)
        assert cold.idempotent == scratch.idempotent
        assert cold.witness_fs == scratch.witness_fs
        assert warm.idempotent == scratch.idempotent
        assert warm.witness_fs == scratch.witness_fs


# -- cross-process rehydration ------------------------------------------------


_SUBPROCESS_SCRIPT = """
import json, sys
from repro import DeterminismOptions, Rehearsal

source = open(sys.argv[1], encoding="utf8").read()
options = DeterminismOptions(incremental=True, incremental_dir=sys.argv[2])
report = Rehearsal(options=options).verify(source, name="m.pp")
det = report.determinism
stats = det.stats
race = det.race
print(json.dumps({
    "deterministic": report.deterministic,
    "idempotent": report.idempotent,
    "race": [str(race.resource_a), str(race.resource_b), str(race.path)]
        if race is not None else None,
    "witness_fs": repr(det.witness_fs),
    "witness_orders": [list(map(str, o)) for o in det.witness_orders]
        if det.witness_orders is not None else None,
    "subtree_reuse_hits": stats.subtree_reuse_hits,
}))
"""


class TestCrossProcess:
    """A fresh process with a different hash seed must find the
    previous process's whole-run results: the store's digests are
    pure functions of the catalog, not of set or dict iteration
    order."""

    @pytest.mark.parametrize(
        "name", ["ntp-fixed", "ntp-nondet", "jpa", "dns-nondet"]
    )
    def test_new_process_rehydrates_identical_verdict(self, name, tmp_path):
        manifest = tmp_path / "m.pp"
        manifest.write_text(load_source(name), encoding="utf8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")] + sys.path
        )

        def run(hash_seed):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _SUBPROCESS_SCRIPT,
                    str(manifest),
                    str(tmp_path / "store"),
                ],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            return json.loads(proc.stdout)

        first = run("1")
        second = run("2")
        assert first["subtree_reuse_hits"] == 0
        assert second["subtree_reuse_hits"] >= 1, (
            "second process must hit the store's whole-run results"
        )
        for key in (
            "deterministic",
            "idempotent",
            "race",
            "witness_fs",
            "witness_orders",
        ):
            assert first[key] == second[key]


# -- the warm developer loop --------------------------------------------------


class TestEditLatency:
    @staticmethod
    def catalog(edited=False):
        """Twelve files on disjoint paths, so every pair commutes;
        ``edited`` changes one resource's content."""
        blocks = []
        for i in range(12):
            content = f"setting{i} = {i}"
            if edited and i == 6:
                content += " # edited"
            blocks.append(
                f"file {{ '/etc/app/conf{i:03d}.cfg':\n"
                f"  ensure  => file,\n"
                f"  content => '{content}',\n"
                f"}}"
            )
        return "\n\n".join(blocks) + "\n"

    def test_one_resource_edit_matches_scratch_without_sat(self, tmp_path):
        base = self.catalog()
        edited = self.catalog(edited=True)
        opts = incremental_options(tmp_path)
        cold = verify(base, opts)
        assert cold.ok
        reset_store_registry()
        warm = verify(edited, opts)
        assert warm.ok
        # The edited catalog misses the store, and its idempotence is
        # proved by rewriting: no resource needs a cached verdict.
        assert warm.idempotence.sat_queries == 0
        scratch = verify(edited, scratch_options())
        assert normalized_row(warm, "m") == normalized_row(scratch, "m")


# -- the cache CLI ------------------------------------------------------------


class TestCacheCli:
    def run_cli(self, *argv):
        from repro.core.cli import main

        return main(list(argv))

    def test_stats_clear_gc(self, tmp_path, capsys):
        source_path = tmp_path / "m.pp"
        source_path.write_text(load_source("bind"), encoding="utf8")
        assert (
            self.run_cli(
                "verify",
                str(source_path),
                "--incremental",
                "--incremental-dir",
                str(tmp_path / "cache"),
            )
            == 0
        )
        reset_store_registry()

        assert (
            self.run_cli("cache", "--cache-dir", str(tmp_path / "cache"), "stats")
            == 0
        )
        out = capsys.readouterr().out
        assert "incremental store" in out
        assert "idem_full: 1 row(s)" in out

        assert (
            self.run_cli(
                "cache",
                "--cache-dir",
                str(tmp_path / "cache"),
                "gc",
                "--max-bytes",
                "0",
            )
            == 0
        )
        assert "incremental row(s)" in capsys.readouterr().out

        assert (
            self.run_cli("cache", "--cache-dir", str(tmp_path / "cache"), "clear")
            == 0
        )
        reset_store_registry()
        store = IncrementalStore(default_store_path(str(tmp_path / "cache")))
        assert store.stats()["entries"] == 0
        store.close()

    def test_gc_rejects_negative_budget(self, tmp_path):
        assert (
            self.run_cli(
                "cache",
                "--cache-dir",
                str(tmp_path),
                "gc",
                "--max-bytes",
                "-1",
            )
            == 2
        )


# -- cache-key discipline -----------------------------------------------------


class TestCacheKeyDiscipline:
    def test_incremental_options_share_verdict_cache_entries(self):
        from repro.service.cache import cache_key

        src = "file { '/f': }"
        assert cache_key(src, DeterminismOptions(incremental=False)) == (
            cache_key(
                src,
                DeterminismOptions(
                    incremental=True, incremental_dir="/anywhere"
                ),
            )
        )
