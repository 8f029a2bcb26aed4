"""repro — a from-scratch reproduction of *Rehearsal: A Configuration
Verification Tool for Puppet* (Shambaugh, Weiss, Guha — PLDI 2016).

Public API tour:

* :class:`repro.Rehearsal` — the end-to-end tool: parse a Puppet
  manifest, build its resource graph, and verify determinism and
  idempotence.
* :mod:`repro.puppet` — the Puppet DSL frontend (§3.1).
* :mod:`repro.fs` — the FS language of filesystem operations (§3.2).
* :mod:`repro.resources` — resource models, C : R → FS (§3.3).
* :mod:`repro.analysis` — determinacy (§4), idempotence and invariants
  (§5), plus the scaling analyses (commutativity, pruning,
  elimination).
* :mod:`repro.smt`, :mod:`repro.logic`, :mod:`repro.sat` — the solver
  substrate replacing Z3 (see DESIGN.md).
* :mod:`repro.corpus` — the 13 benchmark configurations of §6.
* :mod:`repro.service` — batch verification: :class:`BatchVerifier` /
  :func:`verify_batch` fan a fleet of manifests out to worker
  processes behind a content-addressed :class:`VerdictCache`.
* :mod:`repro.testing` — differential fuzzing and reproducer replay
  (see docs/fuzzing.md).

The package init is **lazy** (PEP 562): importing ``repro`` binds only
``__version__`` and :func:`_lazy_hooks`; every re-exported name
resolves on first attribute access via the ``_LAZY_EXPORTS`` table
below.  This keeps a one-shot ``rehearsal verify`` from importing the
batch service's process pool and the daemon's event loop, which it
does not run (checked by ``tests/test_import_graph.py``).
"""

from importlib import import_module

# The service package reads repro.__version__ (it keys the verdict
# cache), so the version must be bound before repro.service imports.
# 1.3.0: race localization validates candidate pairs concretely on the
# witness; 1.4.0: the static analyzer (repro.analysis.lint) ships and
# verify-batch rows gain a lint block; 1.5.0: the pluggable
# SolverBackend layer and verify-batch rows gain ``solver_backend``.
__version__ = "1.6.0"

#: name -> defining module.  Only the named module is imported on
#: first access, which keeps the one-shot CLI's import cost down
#: (checked by tests/test_import_graph.py).
_LAZY_EXPORTS = {
    "AnalysisBudgetExceeded": "repro.errors",
    "BatchReport": "repro.service",
    "BatchVerifier": "repro.service",
    "DaemonConfig": "repro.service.daemon",
    "DependencyCycleError": "repro.errors",
    "DeterminismOptions": "repro.analysis.determinism",
    "DeterminismResult": "repro.analysis.determinism",
    "IdempotenceResult": "repro.analysis.idempotence",
    "ManifestResult": "repro.service",
    "PuppetEvalError": "repro.errors",
    "PuppetSyntaxError": "repro.errors",
    "Rehearsal": "repro.core.pipeline",
    "RehearsalDaemon": "repro.service.daemon",
    "ReproError": "repro.errors",
    "ResourceModelError": "repro.errors",
    "TieredVerdictCache": "repro.service.tiered",
    "VerdictCache": "repro.service",
    "VerificationReport": "repro.core.pipeline",
    "verify_batch": "repro.service",
}

__all__ = [*sorted(_LAZY_EXPORTS), "__version__"]


def _lazy_hooks(namespace, table):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace`` and whose ``table`` maps each re-exported
    name to its defining module.  Only that module is imported, on
    first access; any other name falls back to submodule access, so
    ``import repro; repro.corpus`` works without importing the
    submodule first."""
    package = namespace["__name__"]

    def __getattr__(name):
        target = table.get(name)
        if target is not None:
            return getattr(import_module(target), name)
        qualified = f"{package}.{name}"
        try:
            return import_module(qualified)
        except ModuleNotFoundError as exc:
            # Only a *missing submodule* becomes AttributeError; a
            # broken import inside a real submodule surfaces unchanged.
            if exc.name == qualified:
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
            raise

    def __dir__():
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_hooks(globals(), _LAZY_EXPORTS)
