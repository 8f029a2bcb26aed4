"""Batch-verification service: verify fleets of manifests in parallel
behind a content-addressed verdict cache.

* :class:`BatchVerifier` / :func:`verify_batch` — the orchestrator
  (directory or path list → :class:`BatchReport`).
* :class:`VerdictCache` — SHA-256-keyed verdict store with
  corrupted-entry recovery.
* :class:`ManifestResult`, :class:`BatchReport` — the machine-readable
  run-report schema (``rehearsal verify-batch --json``).
* :class:`TieredVerdictCache` — in-process LRU over the on-disk
  verdict store (the daemon's hot tier).
* :mod:`repro.service.daemon` — the resident HTTP service behind
  ``rehearsal serve`` (imported lazily: it pulls in asyncio and is
  only needed by the daemon entry points).
"""

# Lazy (PEP 562), like repro itself: `verify --incremental` reaches
# repro.service.incremental through this package and must not pay for
# the orchestrator's process pool (multiprocessing, concurrent.futures).

from repro import _lazy_hooks

#: name -> defining module.  Only the named module is imported on
#: first access, which keeps the one-shot CLI's import cost down
#: (checked by tests/test_import_graph.py).
_LAZY_EXPORTS = {
    "BatchReport": "repro.service.schema",
    "BatchVerifier": "repro.service.orchestrator",
    "CacheStats": "repro.service.schema",
    "ManifestResult": "repro.service.schema",
    "TieredVerdictCache": "repro.service.tiered",
    "VerdictCache": "repro.service.cache",
    "batch_table_rows": "repro.service.schema",
    "cache_key": "repro.service.cache",
    "default_cache_dir": "repro.service.cachedir",
    "discover_manifests": "repro.service.orchestrator",
    "normalized_row": "repro.service.schema",
    "normalized_rows": "repro.service.schema",
    "source_digest": "repro.service.cache",
    "verify_batch": "repro.service.orchestrator",
}

__all__ = sorted(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_hooks(globals(), _LAZY_EXPORTS)
