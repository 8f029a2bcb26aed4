"""The batch-verification service.

:class:`BatchVerifier` takes a fleet of manifests (a directory, a list
of paths, or in-memory sources), consults the content-addressed
verdict cache, fans the misses out to a ``ProcessPoolExecutor`` pool of
workers each running the full :class:`repro.Rehearsal` pipeline, and
aggregates everything into a :class:`repro.service.schema.BatchReport`.

Isolation guarantees:

* a manifest that fails to compile or analyze reports ``status:
  "error"`` for itself only;
* a worker process that dies outright (OOM kill, segfault, ``os._exit``
  in a resource model) breaks its pool, but the orchestrator retries
  every manifest the broken pool lost in a fresh single-worker pool, so
  one bad manifest costs one error row — never the batch.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro import __version__
from repro.analysis.determinism import DeterminismOptions
from repro.resources.compiler import ModelContext
from repro.service.cache import VerdictCache, cache_key, source_digest
from repro.service.schema import (
    BatchReport,
    CacheStats,
    ManifestResult,
)

PathLike = Union[str, os.PathLike]

logger = logging.getLogger(__name__)

#: Error prefix marking circumstantial failures (a tool bug, memory
#: pressure) as opposed to verdicts that are a pure function of the
#: manifest — these are never cached.
_INTERNAL_FAILURE = "internal failure:"


def discover_manifests(target: PathLike, pattern: str = "*.pp") -> List[Path]:
    """Every manifest under ``target``: a file is itself, a directory
    is searched recursively and sorted for a deterministic batch
    order."""
    path = Path(target)
    if path.is_dir():
        return sorted(path.rglob(pattern))
    if path.is_file():
        return [path]
    raise FileNotFoundError(f"no manifest file or directory at {path}")


@dataclass(frozen=True)
class _UnreadableSource:
    """Placeholder for a manifest whose file could not be read; turns
    into an error row instead of sinking the batch."""

    message: str


@dataclass(frozen=True)
class _Job:
    """One unit of worker input; everything here must pickle."""

    name: str
    source: str
    sha256: str
    key: str
    options: DeterminismOptions
    platform: str
    node_name: str
    synthesize_packages: bool


def _verify_one(job: _Job) -> dict:
    """Worker body: run the full pipeline on one manifest.

    Runs in a pool process (or in-process for serial batches); always
    returns a :class:`ManifestResult` dict, converting any exception —
    the pipeline catches ``ReproError`` itself, so anything arriving
    here is an internal failure worth surfacing verbatim.
    """
    from repro.core.pipeline import Rehearsal
    from repro.errors import ReproError

    try:
        context = ModelContext.for_platform(
            job.platform, synthesize=job.synthesize_packages
        )
        tool = Rehearsal(
            context=context, options=job.options, node_name=job.node_name
        )
        # One frontend for both the verification and lint.  If it
        # fails, each rebuilds it and reports the failure its own way
        # (the row's error text; lint's staged diagnostics).
        start = time.perf_counter()
        try:
            front = tool.frontend(job.source)
        except ReproError:
            front = None
        report = tool.verify(job.source, name=job.name, compiled=front)
        report.total_seconds = time.perf_counter() - start
        result = ManifestResult.from_report(
            report, sha256=job.sha256, cache_key=job.key
        )
        try:
            from repro.analysis.lint import LintOptions, lint_source

            result.lint = lint_source(
                job.source,
                name=job.name,
                options=LintOptions(),
                context=context,
                node_name=job.node_name,
                frontend=front,
            ).to_dict()
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            # Lint is advisory in a batch row: a linter crash must
            # never cost the verification verdict, but it must show.
            logger.warning(
                "lint crashed on %s (%s); its row has no lint block",
                job.name,
                type(exc).__name__,
                exc_info=True,
            )
            result.lint = None
    except KeyboardInterrupt:
        raise
    except BaseException as exc:
        # BaseException on purpose: a stray sys.exit() in a resource
        # model must become an error row, not kill the worker (or, on
        # the serial path, the orchestrator itself).
        result = ManifestResult(
            name=job.name,
            status="error",
            error=f"{_INTERNAL_FAILURE} {type(exc).__name__}: {exc}",
            sha256=job.sha256,
            cache_key=job.key,
        )
    return result.to_dict()


class BatchVerifier:
    """Verify a fleet of manifests, in parallel, through the cache.

    ``workers=1`` runs serially in-process (no pool overhead);
    ``workers=N`` fans out to N processes.  Pass ``cache=None`` to
    disable caching entirely.  An unknown ``platform`` raises
    ``ValueError`` here rather than failing every manifest.
    """

    def __init__(
        self,
        options: Optional[DeterminismOptions] = None,
        platform: str = "ubuntu",
        node_name: str = "default",
        synthesize_packages: bool = True,
        workers: int = 1,
        cache: Optional[VerdictCache] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        ModelContext.for_platform(platform)  # rejects an unknown name
        self.options = options or DeterminismOptions()
        self.platform = platform
        self.node_name = node_name
        self.synthesize_packages = synthesize_packages
        self.workers = workers
        self.cache = cache

    # -- entry points ------------------------------------------------------

    def verify_directory(self, directory: PathLike) -> BatchReport:
        return self.verify_paths(discover_manifests(directory))

    def verify_paths(self, paths: Iterable[PathLike]) -> BatchReport:
        named = []
        for p in paths:
            try:
                source = Path(p).read_text(encoding="utf8")
            except (OSError, UnicodeDecodeError) as exc:
                source = _UnreadableSource(
                    f"cannot read manifest: {type(exc).__name__}: {exc}"
                )
            named.append((str(p), source))
        return self.verify_sources(named)

    def verify_sources(
        self, sources: Union[Mapping[str, str], Sequence[Tuple[str, str]]]
    ) -> BatchReport:
        """Verify named manifest sources; the report preserves order."""
        items = (
            list(sources.items())
            if isinstance(sources, Mapping)
            else list(sources)
        )
        start = time.perf_counter()
        counters0 = self._cache_counters()

        results: Dict[int, ManifestResult] = {}
        by_key: Dict[str, List[Tuple[int, _Job]]] = {}
        for index, (name, source) in enumerate(items):
            if isinstance(source, _UnreadableSource):
                results[index] = ManifestResult(
                    name=name, status="error", error=source.message
                )
                continue
            job = self._make_job(name, source)
            hit = self._lookup(job)
            if hit is not None:
                results[index] = hit
            else:
                by_key.setdefault(job.key, []).append((index, job))

        if by_key:
            # Content-addressed dedup within the batch too: identical
            # sources (a fleet of hosts sharing one template) are
            # verified once; duplicate rows copy the verdict.
            unique = [group[0] for group in by_key.values()]
            ran = dict(self._run_jobs(unique))
            for group in by_key.values():
                first_index, _ = group[0]
                result = ran[first_index]
                results[first_index] = result
                for dup_index, dup_job in group[1:]:
                    results[dup_index] = replace(
                        result,
                        name=dup_job.name,
                        seconds=0.0,
                        solver_seconds=0.0,
                        deduplicated=True,
                    )

        counters1 = self._cache_counters()
        deltas = {
            name: counters1[name] - counters0[name] for name in counters1
        }
        report = BatchReport(
            results=[results[i] for i in range(len(items))],
            workers=self.workers,
            total_seconds=time.perf_counter() - start,
            cache=CacheStats(
                enabled=self.cache is not None,
                directory=(
                    str(self.cache.directory) if self.cache else None
                ),
                **deltas,
            ),
            version=__version__,
            platform=self.platform,
        )
        return report

    # -- cache plumbing ----------------------------------------------------

    def _make_job(self, name: str, source: str) -> _Job:
        return _Job(
            name=name,
            source=source,
            sha256=source_digest(source),
            key=cache_key(
                source,
                options=self.options,
                platform=self.platform,
                node_name=self.node_name,
                synthesize_packages=self.synthesize_packages,
            ),
            options=self.options,
            platform=self.platform,
            node_name=self.node_name,
            synthesize_packages=self.synthesize_packages,
        )

    def _cache_counters(self) -> Dict[str, int]:
        if self.cache is None:
            return {
                "hits": 0,
                "misses": 0,
                "corrupted": 0,
                "read_errors": 0,
                "write_errors": 0,
            }
        return {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "corrupted": self.cache.corrupted,
            "read_errors": self.cache.read_errors,
            "write_errors": self.cache.write_errors,
        }

    def _lookup(self, job: _Job) -> Optional[ManifestResult]:
        if self.cache is None:
            return None
        lookup_start = time.perf_counter()
        stored = self.cache.get(job.key)
        if stored is None:
            return None
        # The key is content-addressed, so a hit may have been computed
        # under another path name; re-label it and zero the timings —
        # this run spent a lookup, not a solve.
        return replace(
            stored,
            name=job.name,
            cached=True,
            seconds=time.perf_counter() - lookup_start,
            solver_seconds=0.0,
        )

    def _store(self, job: _Job, result: ManifestResult) -> None:
        """Persist a worker-produced verdict.  Compile errors and blown
        exploration budgets are as deterministic as real verdicts and
        cache fine; circumstantial failures — internal errors, dead
        workers, wall-clock timeouts — are not a function of the
        manifest and must be retried on the next run."""
        if self.cache is None:
            return
        if result.error_transient:
            return
        if result.error is not None and result.error.startswith(
            _INTERNAL_FAILURE
        ):
            return
        self.cache.put(job.key, result)

    # -- execution ---------------------------------------------------------

    def _run_jobs(
        self, jobs: List[Tuple[int, _Job]]
    ) -> List[Tuple[int, ManifestResult]]:
        # Serial mode runs in-process by design (no pool overhead, at
        # the documented cost of no crash isolation).  A parallel
        # verifier keeps the pool even for a single miss — a crashing
        # manifest must never take the orchestrator down with it.
        if self.workers == 1:
            out = []
            for index, job in jobs:
                result = ManifestResult.from_dict(_verify_one(job))
                self._store(job, result)
                out.append((index, result))
            return out
        return self._run_parallel(jobs)

    def _run_parallel(
        self, jobs: List[Tuple[int, _Job]]
    ) -> List[Tuple[int, ManifestResult]]:
        out, casualties = self._run_pool(jobs)
        if casualties:
            # A broken pool fails *every* outstanding future, so most
            # casualties are innocent bystanders of one crash.  Retry
            # them together in one fresh pool at full width; only the
            # second-time failures — the actual crashers — pay the
            # one-job-per-pool quarantine.
            retried, still_failing = self._run_pool(casualties)
            out.extend(retried)
            for index, job in still_failing:
                out.append((index, self._run_quarantined(job)))
        return out

    def _run_pool(
        self, jobs: List[Tuple[int, _Job]]
    ) -> Tuple[
        List[Tuple[int, ManifestResult]], List[Tuple[int, _Job]]
    ]:
        """One pool pass: (completed results, failed jobs)."""
        out: List[Tuple[int, ManifestResult]] = []
        casualties: List[Tuple[int, _Job]] = []
        max_workers = min(self.workers, len(jobs))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {}
            for index, job in jobs:
                try:
                    futures[pool.submit(_verify_one, job)] = (index, job)
                except KeyboardInterrupt:
                    raise
                except BaseException:
                    # A worker crash can break the pool while we are
                    # still submitting; every later submit then raises
                    # too.  Each unsubmitted job is just a casualty.
                    casualties.append((index, job))
            for future in as_completed(futures):
                index, job = futures[future]
                try:
                    result = ManifestResult.from_dict(future.result())
                except KeyboardInterrupt:
                    raise
                except BaseException:
                    # The worker died, or its result failed to cross
                    # the process boundary.
                    casualties.append((index, job))
                    continue
                self._store(job, result)
                out.append((index, result))
        return out, casualties

    def _run_quarantined(self, job: _Job) -> ManifestResult:
        """Re-run one manifest in a fresh single-worker pool, so a
        genuinely crashing manifest takes down only its own private
        pool and reports an error row; innocent bystanders of an
        earlier pool breakage verify normally."""
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                result = ManifestResult.from_dict(
                    pool.submit(_verify_one, job).result()
                )
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            return ManifestResult.crashed(
                job.name,
                f"worker process died while verifying this manifest "
                f"({type(exc).__name__}: {exc})",
            )
        self._store(job, result)
        return result


def verify_batch(
    target: Union[PathLike, Iterable[PathLike]],
    workers: int = 1,
    options: Optional[DeterminismOptions] = None,
    platform: str = "ubuntu",
    node_name: str = "default",
    cache_dir: Optional[PathLike] = None,
    use_cache: bool = True,
    synthesize_packages: bool = True,
) -> BatchReport:
    """One-call batch verification.

    ``target`` may be a directory, a single manifest path, or an
    iterable of paths.  See :class:`BatchVerifier` for the knobs.
    """
    cache = VerdictCache(cache_dir) if use_cache else None
    verifier = BatchVerifier(
        options=options,
        platform=platform,
        node_name=node_name,
        synthesize_packages=synthesize_packages,
        workers=workers,
        cache=cache,
    )
    if isinstance(target, (str, os.PathLike)):
        paths = discover_manifests(target)
    else:
        paths = [Path(p) for p in target]
    return verifier.verify_paths(paths)
