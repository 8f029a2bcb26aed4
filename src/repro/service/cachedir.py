"""Where the on-disk caches live.

Both the verdict cache (:mod:`repro.service.cache`) and the
incremental store (:mod:`repro.service.incremental`) default to this
directory.  It is a module of its own so that ``verify --incremental``
can find the store without importing the verdict cache and its row
schema.
"""

from __future__ import annotations

import os
from pathlib import Path


def default_cache_dir() -> Path:
    """``$REHEARSAL_CACHE_DIR``, else ``$XDG_CACHE_HOME/rehearsal``
    (or ``~/.cache/rehearsal``).

    The dedicated override points directly at the cache directory (no
    ``rehearsal`` suffix appended), so CI jobs and the fuzz workflow
    can isolate cache state without mutating ``XDG_CACHE_HOME`` for
    every other tool in the process.
    """
    override = os.environ.get("REHEARSAL_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "rehearsal"
