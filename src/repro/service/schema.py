"""Machine-readable schema for batch-verification runs.

A batch run produces one :class:`ManifestResult` per manifest and one
aggregating :class:`BatchReport`.  Both are plain-data objects with a
stable dict/JSON form: workers ship ``ManifestResult`` dicts across the
process boundary, the verdict cache persists them to disk, and the CLI
writes the whole :class:`BatchReport` as the ``--json`` run report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.core.pipeline import VerificationReport

#: Version 2: verdict rows grew the exploration statistics
#: (``branches_explored``, ``memo_hits``, ``states_merged``,
#: ``distinct_finals``).  Version 3: rows grew the per-manifest
#: ``lint`` block (the static analyzer's verdict, rule counts and
#: diagnostics — see :mod:`repro.analysis.lint`).  Version 4: rows
#: grew ``solver_backend``, the SAT backend the verdict was computed
#: under; with the CDCL solver the only backend it is the constant
#: ``"cdcl"`` until a v6 bump drops it.  Version 5: rows
#: grew the incremental-reuse counters (``subtree_reuse_hits``,
#: ``cnf_cache_hits``, ``commute_cache_hits`` — see
#: :mod:`repro.service.incremental`); all three are zero on
#: from-scratch runs, so incremental and scratch rows stay comparable
#: field-for-field, and the last two are now zero on every run.  The
#: version participates in the verdict cache key
#: (:func:`repro.service.cache.cache_key`), so entries written under
#: an older schema rotate out instead of deserializing incompletely.
SCHEMA_VERSION = 5

#: ``ManifestResult.status`` values.
STATUS_OK = "ok"  # verified: deterministic and idempotent
STATUS_FAILED = "failed"  # verified: at least one verdict is negative
STATUS_ERROR = "error"  # no verdict: compile error or worker crash


@dataclass
class ManifestResult:
    """The verdict for one manifest in a batch run."""

    name: str
    status: str
    deterministic: Optional[bool] = None
    idempotent: Optional[bool] = None
    resource_count: int = 0
    #: For non-deterministic manifests: the racing resource pair and
    #: contended filesystem path, localized by replaying the diverging
    #: orders on the witness (:mod:`repro.analysis.localize`), e.g.
    #: ``["File['/etc/ntp.conf']", "Package['ntp']"]`` racing on
    #: ``/etc/ntp.conf``.
    race_pair: Optional[List[str]] = None
    race_path: Optional[str] = None
    error: Optional[str] = None
    error_transient: bool = False  # load-dependent failure; never cached
    seconds: float = 0.0
    solver_seconds: float = 0.0
    #: Exploration statistics of the determinacy check (schema v2):
    #: how much of the order space was walked, and how much the
    #: reachable-state memoization collapsed it.
    branches_explored: int = 0
    memo_hits: int = 0
    states_merged: int = 0
    distinct_finals: int = 0
    #: The static analyzer's verdict for this manifest (schema v3):
    #: the ``LintReport.to_dict()`` shape — ``clean``, ``exit_code``,
    #: severity ``counts``, ``diagnostics`` and ``stats``.  ``None``
    #: when linting itself crashed (never blocks the verification row).
    lint: Optional[dict] = None
    #: The SAT backend the verdict was computed under (schema v4).
    #: The in-process CDCL solver is the only one, so this is the
    #: constant ``"cdcl"``; kept so v5 rows keep their shape.
    solver_backend: str = "cdcl"
    #: Incremental-store reuse counters (schema v5): how much of this
    #: verdict was rehydrated from the persistent store
    #: (:mod:`repro.service.incremental`).  Like the timing fields
    #: they describe the *run*, not the verdict — a from-scratch run
    #: reports zeros for the byte-identical verdict.
    subtree_reuse_hits: int = 0
    #: Always 0: the store no longer keeps CNF blocks or commutativity
    #: pairs.  Both stay until the next row-schema bump.
    cnf_cache_hits: int = 0
    commute_cache_hits: int = 0
    sha256: str = ""
    cache_key: str = ""
    cached: bool = False
    deduplicated: bool = False  # verdict copied from an identical manifest
    # verified earlier in the same batch

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @classmethod
    def from_report(
        cls,
        report: VerificationReport,
        sha256: str = "",
        cache_key: str = "",
    ) -> "ManifestResult":
        if report.error is not None:
            status = STATUS_ERROR
        elif report.ok:
            status = STATUS_OK
        else:
            status = STATUS_FAILED
        race_pair = None
        race_path = None
        race = (
            report.determinism.race
            if report.determinism is not None
            else None
        )
        if race is not None:
            race_pair = [str(race.resource_a), str(race.resource_b)]
            race_path = str(race.path) if race.path is not None else None
        det_stats = (
            report.determinism.stats
            if report.determinism is not None
            else None
        )
        return cls(
            name=report.manifest_name,
            status=status,
            deterministic=report.deterministic,
            idempotent=report.idempotent,
            resource_count=report.resource_count,
            race_pair=race_pair,
            race_path=race_path,
            error=report.error,
            error_transient=report.error_transient,
            seconds=report.total_seconds,
            solver_seconds=report.solver_seconds,
            branches_explored=(
                det_stats.branches_explored if det_stats else 0
            ),
            memo_hits=det_stats.memo_hits if det_stats else 0,
            states_merged=det_stats.states_merged if det_stats else 0,
            distinct_finals=(
                det_stats.distinct_finals if det_stats else 0
            ),
            subtree_reuse_hits=(
                det_stats.subtree_reuse_hits if det_stats else 0
            ),
            cnf_cache_hits=det_stats.cnf_cache_hits if det_stats else 0,
            commute_cache_hits=(
                det_stats.commute_cache_hits if det_stats else 0
            ),
            sha256=sha256,
            cache_key=cache_key,
        )

    @classmethod
    def crashed(cls, name: str, message: str) -> "ManifestResult":
        """A result for a manifest whose worker died before reporting."""
        return cls(name=name, status=STATUS_ERROR, error=message)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ManifestResult":
        if not isinstance(data, dict):
            raise ValueError(f"manifest result must be a dict, got {data!r}")
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown manifest-result keys: {sorted(unknown)}")
        result = cls(**data)
        if result.status not in (STATUS_OK, STATUS_FAILED, STATUS_ERROR):
            raise ValueError(f"unknown status {result.status!r}")
        return result


@dataclass
class CacheStats:
    """Cache traffic observed during one batch run."""

    enabled: bool = False
    directory: Optional[str] = None
    hits: int = 0
    misses: int = 0
    corrupted: int = 0  # entries found unreadable and recovered from
    read_errors: int = 0  # lookups that failed on storage errors
    write_errors: int = 0  # failed stores (unwritable cache directory)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BatchReport:
    """Aggregate of one batch-verification run."""

    results: List[ManifestResult] = field(default_factory=list)
    workers: int = 1
    total_seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)
    version: str = ""
    platform: str = "ubuntu"

    # -- aggregate views ---------------------------------------------------

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_OK)

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_FAILED)

    @property
    def error_count(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_ERROR)

    @property
    def solver_seconds(self) -> float:
        return sum(r.solver_seconds for r in self.results)

    def result_for(self, name: str) -> ManifestResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "version": self.version,
            "platform": self.platform,
            "workers": self.workers,
            "total_seconds": self.total_seconds,
            "summary": {
                "manifests": len(self.results),
                "ok": self.ok_count,
                "failed": self.failed_count,
                "errors": self.error_count,
                "solver_seconds": self.solver_seconds,
            },
            "cache": self.cache.to_dict(),
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        cache = CacheStats(**data.get("cache", {}))
        return cls(
            results=[ManifestResult.from_dict(r) for r in data["results"]],
            workers=data.get("workers", 1),
            total_seconds=data.get("total_seconds", 0.0),
            cache=cache,
            version=data.get("version", ""),
            platform=data.get("platform", "ubuntu"),
        )


#: Row fields that describe the *run*, not the verdict: wall-clock
#: timings, cache/dedup provenance, and the incremental-reuse
#: counters.  Two runs of the same manifest under the same options
#: agree on everything else byte for byte — the contract
#: ``examples/serve_client.py`` and the daemon-e2e CI job assert
#: between ``rehearsal serve`` and ``rehearsal verify-batch``.
RUN_CIRCUMSTANCE_FIELDS = (
    "seconds",
    "solver_seconds",
    "cached",
    "deduplicated",
    "subtree_reuse_hits",
    "cnf_cache_hits",
    "commute_cache_hits",
)


def normalized_row(row: dict) -> dict:
    """A deep copy of a :class:`ManifestResult` dict with every
    run-circumstance field removed, so rows from different runs (or
    different front ends: batch CLI vs daemon) compare byte-identical
    exactly when the verdicts agree."""
    import copy

    out = copy.deepcopy(row)
    for field_name in RUN_CIRCUMSTANCE_FIELDS:
        out.pop(field_name, None)
    lint = out.get("lint")
    if isinstance(lint, dict):
        lint.get("stats", {}).pop("seconds", None)
    return out


def normalized_rows(rows) -> List[dict]:
    """:func:`normalized_row` over a row list (dicts or results)."""
    return [
        normalized_row(r.to_dict() if hasattr(r, "to_dict") else r)
        for r in rows
    ]


_STATUS_WORD: Dict[str, str] = {
    STATUS_OK: "ok",
    STATUS_FAILED: "FAILED",
    STATUS_ERROR: "ERROR",
}


def _verdict_cell(value: Optional[bool]) -> str:
    if value is None:
        return "-"
    return "yes" if value else "NO"


def batch_table_rows(report: BatchReport) -> List[List[str]]:
    """The summary table as rows of cells (header excluded)."""
    rows = []
    for r in report.results:
        rows.append(
            [
                r.name,
                _STATUS_WORD.get(r.status, r.status),
                _verdict_cell(r.deterministic),
                _verdict_cell(r.idempotent),
                str(r.resource_count),
                f"{r.seconds:.3f}s",
                (
                    "hit"
                    if r.cached
                    else "dup"
                    if r.deduplicated
                    else "miss"
                    if report.cache.enabled
                    else "-"
                ),
            ]
        )
    return rows
