"""Cross-run incremental verification store (ROADMAP #4).

The verdict cache (:mod:`repro.service.cache`) memoizes whole-manifest
results in one process, keyed on the source text.  This store keeps
whole analysis results across processes, keyed on content digests of
what the analyses actually consume, so a fresh process re-verifying an
unchanged catalog skips exploration, SAT and idempotence:

- **Root determinism results** (``det_root``): the verdict, stats and
  witness material, keyed by the post-pruning work set (see
  :class:`DetIncremental`).  An edit that pruning removes (a private
  path) still hits.
- **Full-catalog idempotence** (``idem_full``): the ``e ≡ e; e``
  verdict and witness, keyed by the catalog's per-resource program
  digests in topological order (see
  :func:`check_idempotence_incremental`).

Storage is a single SQLite database (stdlib ``sqlite3``), versioned by
``STORE_VERSION`` *and* the package version: any mismatch drops the
store and starts cold.  Every storage failure — corruption, truncated
file, permission trouble — degrades to a cold run, never to a wrong
verdict: the store disables itself and every lookup misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sqlite3
import threading
import time
from pathlib import Path as OsPath
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from repro import __version__
from repro.analysis.determinism import verdict_options
from repro.analysis.idempotence import IdempotenceResult, check_idempotence
from repro.digraph import DiGraph, topological_sort
from repro.fs import FileSystem, eval_expr, seq
from repro.fs import syntax as fx
from repro.fs.paths import Path
from repro.node import Node

NodeId = Hashable

#: Bump to invalidate every persisted entry (layout or semantics
#: change).  The package version is part of the gate too, mirroring the
#: verdict cache's version rotation.
STORE_VERSION = 3

_STORE_FILENAME = "incremental.sqlite"


def default_store_path(directory: Optional[str] = None) -> OsPath:
    """The store location: ``<cache-dir>/incremental.sqlite`` unless an
    explicit directory is given."""
    if directory:
        return OsPath(directory) / _STORE_FILENAME
    from repro.service.cachedir import default_cache_dir

    return default_cache_dir() / _STORE_FILENAME


class IncrementalStore:
    """A sectioned key/value store over one SQLite file.

    All values are JSON strings.  The store is defensive end to end:
    any :mod:`sqlite3` error disables it (reads miss, writes drop) for
    the rest of the process — a damaged store can cost a cold run but
    can never corrupt a verdict.  A version mismatch on open drops all
    entries, which is what makes schema bumps invalidate cleanly.
    """

    def __init__(self, path: OsPath):
        self.path = OsPath(path)
        self.disabled = False
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        try:
            self._open()
        except sqlite3.Error:
            # A corrupted database file: delete and retry once, then
            # give up and run cold.
            self._close_quietly()
            try:
                self.path.unlink()
            except OSError:
                pass
            try:
                self._open()
            except (sqlite3.Error, OSError):
                self._close_quietly()
                self.disabled = True
        except OSError:
            self.disabled = True

    # -- lifecycle ----------------------------------------------------------

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path), timeout=10.0, check_same_thread=False
        )
        self._conn = conn
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            "section TEXT NOT NULL, key TEXT NOT NULL, "
            "value TEXT NOT NULL, updated_at REAL NOT NULL, "
            "PRIMARY KEY (section, key))"
        )
        expected = f"{STORE_VERSION}:{__version__}"
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'version'"
        ).fetchone()
        if row is None or row[0] != expected:
            conn.execute("DELETE FROM entries")
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("version", expected),
            )
        conn.commit()

    def _close_quietly(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def close(self) -> None:
        with self._lock:
            self._close_quietly()
            self.disabled = True

    def _trip(self) -> None:
        """First storage error wins: run cold from here on."""
        self.disabled = True
        self._close_quietly()

    # -- key/value ----------------------------------------------------------

    def get(self, section: str, key: str) -> Optional[str]:
        if self.disabled:
            return None
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT value FROM entries WHERE section=? AND key=?",
                    (section, key),
                ).fetchone()
            except sqlite3.Error:
                self._trip()
                return None
        return row[0] if row else None

    def put(self, section: str, key: str, value: str) -> None:
        self.put_many(section, [(key, value)])

    def put_many(
        self, section: str, items: Iterable[Tuple[str, str]]
    ) -> None:
        if self.disabled:
            return
        now = time.time()
        rows = [(section, k, v, now) for k, v in items]
        if not rows:
            return
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO entries "
                    "(section, key, value, updated_at) VALUES (?, ?, ?, ?)",
                    rows,
                )
                self._conn.commit()
            except sqlite3.Error:
                self._trip()

    def get_json(self, section: str, key: str) -> Optional[dict]:
        raw = self.get(section, key)
        if raw is None:
            return None
        try:
            value = json.loads(raw)
        except ValueError:
            return None
        return value if isinstance(value, dict) else None

    def put_json(self, section: str, key: str, value: dict) -> None:
        self.put(section, key, json.dumps(value, sort_keys=True))

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> dict:
        """Per-section entry counts and value bytes plus the on-disk
        file size, for ``rehearsal cache stats``."""
        sections: Dict[str, dict] = {}
        entries = 0
        value_bytes = 0
        if not self.disabled:
            with self._lock:
                if self._conn is not None:
                    try:
                        rows = self._conn.execute(
                            "SELECT section, COUNT(*), "
                            "COALESCE(SUM(LENGTH(value)), 0) "
                            "FROM entries GROUP BY section ORDER BY section"
                        ).fetchall()
                    except sqlite3.Error:
                        self._trip()
                        rows = []
                    for section, count, nbytes in rows:
                        sections[section] = {
                            "entries": count,
                            "bytes": nbytes,
                        }
                        entries += count
                        value_bytes += nbytes
        try:
            file_bytes = self.path.stat().st_size
        except OSError:
            file_bytes = 0
        return {
            "path": str(self.path),
            "entries": entries,
            "bytes": file_bytes,
            "value_bytes": value_bytes,
            "sections": sections,
        }

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        if self.disabled:
            return 0
        with self._lock:
            if self._conn is None:
                return 0
            try:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
                self._conn.execute("DELETE FROM entries")
                self._conn.commit()
                self._conn.execute("VACUUM")
            except sqlite3.Error:
                self._trip()
                return 0
        return count

    def gc(self, max_bytes: int) -> int:
        """Evict least-recently-updated entries until the summed value
        bytes fit in ``max_bytes``; returns entries removed."""
        if self.disabled:
            return 0
        removed = 0
        with self._lock:
            if self._conn is None:
                return 0
            try:
                rows = self._conn.execute(
                    "SELECT section, key, LENGTH(value), updated_at "
                    "FROM entries ORDER BY updated_at"
                ).fetchall()
                total = sum(r[2] for r in rows)
                doomed = []
                for section, key, size, _at in rows:
                    if total <= max_bytes:
                        break
                    doomed.append((section, key))
                    total -= size
                    removed += 1
                if doomed:
                    self._conn.executemany(
                        "DELETE FROM entries WHERE section=? AND key=?",
                        doomed,
                    )
                    self._conn.commit()
                    self._conn.execute("VACUUM")
            except sqlite3.Error:
                self._trip()
                return removed
        return removed


# One store handle per path per process: verify-batch workers and
# repeated verifies share the connection (and its page cache) instead
# of reopening SQLite per manifest.
_stores: Dict[str, IncrementalStore] = {}
_stores_lock = threading.Lock()


def open_store(directory: Optional[str] = None) -> Optional[IncrementalStore]:
    """The process-wide store for ``directory`` (default cache dir),
    or None when storage is unusable (degrade to cold)."""
    path = default_store_path(directory)
    key = str(path)
    with _stores_lock:
        store = _stores.get(key)
        if store is None or store.disabled:
            store = IncrementalStore(path)
            _stores[key] = store
    return None if store.disabled else store


def reset_store_registry() -> None:
    """Close and forget every open store (tests re-point the cache dir
    between cases; a cached handle would keep writing to the old one)."""
    with _stores_lock:
        for store in _stores.values():
            store.close()
        _stores.clear()


# -- content digests ---------------------------------------------------------


def _blake(text: str) -> str:
    return hashlib.blake2b(text.encode("utf8"), digest_size=16).hexdigest()


def expr_digest(e: fx.Expr) -> str:
    """Stable content digest of an FS program (or predicate): a
    canonical serialization of the AST, independent of object identity
    and process."""
    return _blake(_ast_repr(e))


def _ast_repr(obj: object) -> str:
    if isinstance(obj, Node):
        inner = ",".join(
            f"{name}={_ast_repr(getattr(obj, name))}" for name in obj._fields
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, Path):
        # Spelled as the field walk spells a node, as persisted keys
        # have always had it.
        return f"Path(parts={_ast_repr(obj.parts)})"
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(_ast_repr(x) for x in obj) + "]"
    return repr(obj)


def domains_digest(domains) -> str:
    """Digest of the modeled path domains (Fig. 8).  Part of the root
    key: a content edit can grow a path's value domain, and results
    over different domains are never interchangeable."""
    parts = []
    for p in domains.paths:
        values = ",".join(repr(v) for v in domains.values(p))
        parts.append(f"{p}=[{values}]")
    return _blake("dom:" + ";".join(parts))


# -- incremental idempotence -------------------------------------------------


def _fs_to_dict(fs: Optional[FileSystem]) -> Optional[Dict[str, Optional[str]]]:
    if fs is None:
        return None
    return {
        str(p): (None if fs.is_dir(p) else fs.file_content(p))
        for p in fs.paths()
    }


def _fs_from_dict(
    entries: Optional[Mapping[str, Optional[str]]]
) -> Optional[FileSystem]:
    if entries is None:
        return None
    return FileSystem.from_dict(entries)


def check_idempotence_incremental(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    options,
    stats=None,
    store: Optional[IncrementalStore] = None,
) -> IdempotenceResult:
    """Idempotence with cross-run reuse; byte-identical verdicts.

    Two tiers, the first falling through to the second:

    1. **Full-catalog hit** (``idem_full``): the exact per-resource
       program digests in topological order were decided before —
       serve the recorded verdict (and witness).
    2. **From scratch**: the unmodified
       :func:`~repro.analysis.idempotence.check_idempotence` — same
       code path, same witness, byte-identical result — recorded
       under the full-catalog key.

    Reuse counters land on ``stats`` (a
    :class:`~repro.analysis.determinism.DeterminismStats`) when given.
    """
    start = time.perf_counter()
    if store is None or store.disabled:
        store = open_store(getattr(options, "incremental_dir", None))
    order: List[NodeId] = topological_sort(graph)
    if store is None:
        return check_idempotence(graph, programs)

    digests = {n: expr_digest(programs[n]) for n in order}
    full_key = _blake("idem_full:" + ":".join(digests[n] for n in order))
    entry = store.get_json("idem_full", full_key)
    if entry is not None and isinstance(entry.get("idempotent"), bool):
        if stats is not None:
            stats.subtree_reuse_hits += 1
        return IdempotenceResult(
            idempotent=entry["idempotent"],
            witness_fs=_fs_from_dict(entry.get("witness")),
            total_seconds=time.perf_counter() - start,
        )

    result = check_idempotence(graph, programs)
    store.put_json(
        "idem_full",
        full_key,
        {
            "idempotent": result.idempotent,
            "witness": _fs_to_dict(result.witness_fs),
        },
    )
    result.total_seconds = time.perf_counter() - start
    return result


# -- determinism-side persistence --------------------------------------------


def _det_options_digest(options) -> str:
    """Digest of every option that can change the determinism result
    (:func:`~repro.analysis.determinism.verdict_options`).
    ``timeout_seconds`` stays in: a run whose budget would have expired
    must keep raising its timeout error row-for-row with a from-scratch
    run, not get rescued by a verdict recorded under a more generous
    budget."""
    return _blake(
        "opts:"
        + json.dumps(verdict_options(options), sort_keys=True, default=repr)
    )


class DetIncremental:
    """Store context for one :func:`check_determinism` run.

    ``root_key`` identifies the whole post-pass work set (programs
    after elimination/pruning/simplification, induced edges, modeled
    domains, analysis options).  The ``det_root`` section maps it to a
    complete recorded result — an unchanged work set (e.g. an edit to a
    pruned-away private path) is served without exploring.

    Creation is infallible-by-construction: :meth:`create` returns
    None whenever storage is unusable, and every lookup validates the
    entry shape — a damaged record is a miss, never a wrong verdict.
    """

    def __init__(
        self,
        store: IncrementalStore,
        graph: DiGraph,
        programs: Dict[NodeId, fx.Expr],
        work_graph: DiGraph,
        work_programs: Dict[NodeId, fx.Expr],
        domains,
        options,
    ):
        self.store = store
        self.graph = graph
        self.programs = programs
        self.orig_digests = sorted(
            (str(n), expr_digest(programs[n])) for n in graph.nodes
        )
        work_set = sorted(
            (str(n), expr_digest(work_programs[n])) for n in work_graph.nodes
        )
        work_edges = sorted((str(u), str(v)) for u, v in work_graph.edges)
        self.root_key = _blake(
            "det_root:"
            + _det_options_digest(options)
            + domains_digest(domains)
            + repr(work_set)
            + repr(work_edges)
        )

    @classmethod
    def create(
        cls,
        graph,
        programs,
        work_graph,
        work_programs,
        domains,
        options,
        store: Optional[IncrementalStore] = None,
    ) -> Optional["DetIncremental"]:
        """``store`` — an already-open handle to reuse (the pipeline
        resolves one per verify, the daemon one per process); without
        it the process-wide registry is consulted per call."""
        if store is None or store.disabled:
            store = open_store(getattr(options, "incremental_dir", None))
        if store is None:
            return None
        return cls(
            store, graph, programs, work_graph, work_programs, domains, options
        )

    # -- whole-result cache --------------------------------------------------

    def lookup_root(self):
        """The recorded result for this work set, or None.  Returns a
        fully reconstructed ``DeterminismResult`` — stats verbatim as
        recorded, witnesses/races rebuilt, outcomes re-derived by
        concrete replay of the recorded orders (outcome objects are not
        serialized; replaying the deterministic evaluator reproduces
        them exactly)."""
        from repro.analysis.determinism import (
            DeterminismResult,
            DeterminismStats,
        )

        entry = self.store.get_json("det_root", self.root_key)
        if entry is None or not isinstance(
            entry.get("deterministic"), bool
        ):
            return None
        raw_stats = entry.get("stats")
        if not isinstance(raw_stats, dict):
            return None
        stats = DeterminismStats()
        for f in dataclasses.fields(stats):
            value = raw_stats.get(f.name)
            if isinstance(value, (bool, int, float)):
                setattr(stats, f.name, value)
        if entry["deterministic"]:
            return DeterminismResult(True, stats)
        # Non-deterministic entries carry witness material that was
        # derived from the *original* programs; a different original
        # catalog can reduce to the same work set, so serve only on an
        # exact original match.
        if entry.get("originals") != [list(p) for p in self.orig_digests]:
            return None
        try:
            witness = _fs_from_dict(entry.get("witness"))
        except (KeyError, ValueError, TypeError):
            return None
        if witness is None:
            return None
        orders = entry.get("orders")
        order_pair = None
        outcome_pair = None
        if orders is not None:
            if not (
                isinstance(orders, list)
                and len(orders) == 2
                and all(isinstance(o, list) for o in orders)
            ):
                return None
            progs = {str(n): self.programs[n] for n in self.graph.nodes}
            try:
                outcomes = [
                    eval_expr(seq(*[progs[n] for n in order]), witness)
                    for order in orders
                ]
            except KeyError:
                return None
            order_pair = (list(orders[0]), list(orders[1]))
            outcome_pair = (outcomes[0], outcomes[1])
        raw_race = entry.get("race")
        race = None
        if raw_race is not None:
            if not isinstance(raw_race, dict):
                return None
            from repro.analysis.localize import RaceReport

            try:
                race = RaceReport(
                    resource_a=raw_race["a"],
                    resource_b=raw_race["b"],
                    path=(
                        Path.of(raw_race["path"])
                        if raw_race.get("path") is not None
                        else None
                    ),
                    core_paths=[
                        Path.of(p) for p in raw_race.get("core_paths", [])
                    ],
                    ok_divergence=bool(raw_race.get("ok_divergence")),
                )
            except (KeyError, ValueError, TypeError):
                return None
        return DeterminismResult(
            False,
            stats,
            witness_fs=witness,
            witness_orders=order_pair,
            witness_outcomes=outcome_pair,
            race=race,
        )

    def record_root(self, result) -> None:
        """Persist a finished result (never errors/budget blowups —
        those are transient, not functions of the manifest)."""
        if result.stats.elimination_fallback:
            # The fallback recursion recorded itself under its own
            # options digest; this key's exploration was discarded.
            return
        entry: dict = {
            "deterministic": bool(result.deterministic),
            "stats": dataclasses.asdict(result.stats),
        }
        if not result.deterministic:
            if result.witness_fs is None:
                return
            entry["originals"] = [list(p) for p in self.orig_digests]
            entry["witness"] = _fs_to_dict(result.witness_fs)
            entry["orders"] = (
                [list(map(str, o)) for o in result.witness_orders]
                if result.witness_orders is not None
                else None
            )
            entry["race"] = (
                {
                    "a": str(result.race.resource_a),
                    "b": str(result.race.resource_b),
                    "path": (
                        str(result.race.path)
                        if result.race.path is not None
                        else None
                    ),
                    "core_paths": [str(p) for p in result.race.core_paths],
                    "ok_divergence": result.race.ok_divergence,
                }
                if result.race is not None
                else None
            )
        self.store.put_json("det_root", self.root_key, entry)
