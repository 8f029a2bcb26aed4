"""Differential fuzzing: generator, concrete oracle, driver, shrinker.

The subsystem behind ``rehearsal fuzz`` (and the nightly CI fuzz job):

* :mod:`repro.testing.generate` — seeded random resource catalogs;
* :mod:`repro.testing.oracle` — concrete all-interleavings reference
  executor, the ground truth the symbolic pipeline is diffed against;
* :mod:`repro.testing.differential` — the driver that runs both and
  classifies disagreements;
* :mod:`repro.testing.shrink` — delta-debugging minimizer;
* :mod:`repro.testing.regressions` — the committed-reproducer format
  shared by ``tests/regressions/`` and ``tools/check_regressions.py``;
* :mod:`repro.testing.replay` — single-reproducer replay through the
  differential pipeline (``rehearsal fuzz --replay``, and the
  regression replay test).

Like :mod:`repro` itself, this package init is lazy (PEP 562): ``from
repro.testing import run_oracle`` imports :mod:`repro.testing.oracle`
alone — not the shrinker, the generator, and everything they import.
"""

from repro import _lazy_hooks

#: name -> defining module.  Only the named module is imported on
#: first access, which keeps the one-shot CLI's import cost down
#: (checked by tests/test_import_graph.py).
_LAZY_EXPORTS = {
    "BUG_CLASSES": "repro.testing.generate",
    "CASES_PER_SECOND": "repro.testing.differential",
    "CaseGenerator": "repro.testing.generate",
    "CaseOutcome": "repro.testing.differential",
    "Disagreement": "repro.testing.differential",
    "Finding": "repro.testing.differential",
    "FuzzSession": "repro.testing.differential",
    "FuzzSummary": "repro.testing.differential",
    "GENERATOR_VERSION": "repro.testing.generate",
    "GeneratedCase": "repro.testing.generate",
    "GeneratorConfig": "repro.testing.generate",
    "MAX_ORACLE_RESOURCES": "repro.testing.oracle",
    "OracleReport": "repro.testing.oracle",
    "RacingPair": "repro.testing.oracle",
    "ReplayResult": "repro.testing.replay",
    "ResourceSpec": "repro.testing.generate",
    "initial_state_family": "repro.testing.oracle",
    "racing_pairs": "repro.testing.oracle",
    "replay_file": "repro.testing.replay",
    "run_oracle": "repro.testing.oracle",
    "run_source": "repro.testing.differential",
    "shrink_case": "repro.testing.shrink",
}

__all__ = sorted(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_hooks(globals(), _LAZY_EXPORTS)
