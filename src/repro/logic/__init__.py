"""Boolean logic substrate: hash-consed formulas and Tseitin CNF."""

# Lazy (PEP 562), like repro.smt: the value domains import the term
# bank through this package and must not load the Tseitin encoder,
# which runs only when a query reaches the SAT solver.

from importlib import import_module

#: name -> defining module.  Only the named module is imported on
#: first access (checked by tests/test_import_graph.py).
_LAZY_EXPORTS = {
    "CNF": "repro.logic.cnf",
    "Term": "repro.logic.terms",
    "TermBank": "repro.logic.terms",
    "dag_size": "repro.logic.terms",
    "iter_dag": "repro.logic.terms",
    "tseitin": "repro.logic.cnf",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(target), name)
