"""Content-addressed verdict cache for batch verification.

Verification is a pure function of (manifest source, analysis options,
platform, tool version), so its verdict can be memoised under a
SHA-256 of exactly those inputs.  Each entry is one JSON file named
``<key>.json`` in the cache directory; re-verifying an unchanged fleet
then costs one hash + one small file read per manifest instead of a
solver run.

The cache is defensive about its own storage: an entry that fails to
parse or fails validation (truncated write, schema drift, manual
editing) is deleted, counted in :attr:`VerdictCache.corrupted`, and
treated as a miss — a damaged cache can slow a run down but never
change a verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Union

from repro import __version__
from repro.analysis.determinism import DeterminismOptions, verdict_options
from repro.resources.compiler import PLATFORMS
from repro.service.cachedir import default_cache_dir
from repro.service.schema import SCHEMA_VERSION, ManifestResult

_ENTRY_SUFFIX = ".json"


def cache_key(
    source: str,
    options: Optional[DeterminismOptions] = None,
    platform: str = "ubuntu",
    node_name: str = "default",
    version: str = __version__,
    synthesize_packages: bool = True,
) -> str:
    """SHA-256 over everything the verdict depends on.

    Any change to the manifest text, the analysis options, the target
    platform (its name and its facts), the node selection, the
    package-modeling knob, the result-row schema version, or the tool
    version produces a new key, so stale verdicts can never be served
    — they are simply never found.  Keying on :data:`repro.service.schema.SCHEMA_VERSION`
    rotates entries whose rows predate newly added fields (e.g. the
    v2 exploration statistics) instead of deserializing them
    incompletely.
    """
    material = json.dumps(
        {
            "source": source,
            "options": verdict_options(options or DeterminismOptions()),
            "platform": [platform, PLATFORMS[platform][0]],
            "node": node_name,
            "version": version,
            "schema": SCHEMA_VERSION,
            "synthesize_packages": synthesize_packages,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf8")).hexdigest()


def source_digest(source: str) -> str:
    """SHA-256 of the manifest text alone (reported per manifest)."""
    return hashlib.sha256(source.encode("utf8")).hexdigest()


class VerdictCache:
    """Filesystem-backed map from cache key to :class:`ManifestResult`."""

    def __init__(self, directory: Union[str, os.PathLike, None] = None):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        self.read_errors = 0
        self.write_errors = 0
        self._writes_disabled = False

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_ENTRY_SUFFIX}"

    def get(self, key: str) -> Optional[ManifestResult]:
        """The cached verdict, or None (counting a miss).  Corrupted
        entries are deleted and reported as misses."""
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            # Unreadable storage (permissions, network filesystem):
            # still a miss, but counted separately so a broken cache is
            # distinguishable from a genuinely cold one.
            self.read_errors += 1
            self.misses += 1
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("entry is not a JSON object")
            if payload.get("key") != key:
                raise ValueError("entry key does not match its filename")
            result = ManifestResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            self.corrupted += 1
            self.misses += 1
            self._evict(path)
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: ManifestResult) -> None:
        """Persist a verdict atomically (write temp file, then rename),
        so a crashed or concurrent run can leave at worst a stale temp
        file, never a half-written entry.  Storage trouble must never
        abort a batch that verified successfully: the first failed
        write disables further write attempts (reads still work — a
        pre-warmed read-only cache is a legitimate setup) and every
        store that did not persist is counted in
        :attr:`write_errors`."""
        if self._writes_disabled:
            self.write_errors += 1
            return
        payload = {
            "key": key,
            "version": __version__,
            "result": result.to_dict(),
        }
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, indent=2), encoding="utf8")
            os.replace(tmp, path)
        except OSError:
            self.write_errors += 1
            self._writes_disabled = True
            self._evict(tmp)

    def _evict(self, path: Path) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def clear(self) -> int:
        """Delete every entry (plus any temp files an interrupted
        write left behind); returns how many entries were actually
        removed (an undeletable entry is not counted)."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for entry in self.directory.glob(f"*{_ENTRY_SUFFIX}"):
            if self._evict(entry):
                removed += 1
        for orphan in self.directory.glob("*.tmp.*"):
            self._evict(orphan)
        return removed

    def stats(self) -> dict:
        """Entry count and on-disk footprint, for ``rehearsal cache
        stats``.  Entries that vanish mid-scan are simply skipped."""
        entries = 0
        total_bytes = 0
        if self.directory.is_dir():
            for entry in self.directory.glob(f"*{_ENTRY_SUFFIX}"):
                try:
                    total_bytes += entry.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total_bytes,
        }

    def gc(self, max_bytes: int) -> int:
        """Evict oldest-first (mtime) until the cache fits in
        ``max_bytes``; returns the number of entries removed.  Temp
        files from interrupted writes are always swept."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for orphan in self.directory.glob("*.tmp.*"):
            self._evict(orphan)
        entries = []
        total = 0
        for entry in self.directory.glob(f"*{_ENTRY_SUFFIX}"):
            try:
                st = entry.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, entry))
            total += st.st_size
        entries.sort()
        for _mtime, size, entry in entries:
            if total <= max_bytes:
                break
            if self._evict(entry):
                removed += 1
                total -= size
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob(f"*{_ENTRY_SUFFIX}"))
