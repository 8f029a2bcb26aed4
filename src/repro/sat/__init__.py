"""SAT solving substrate: the CDCL solver and its brute-force oracle
(see docs/solver.md)."""

# Lazy (PEP 562), like repro itself: every SAT query imports
# repro.sat.solver through this package and must not load the
# brute-force oracle, which only the tests run.

from importlib import import_module

#: name -> defining module.  Only the named module is imported on
#: first access, which keeps the one-shot CLI's import cost down
#: (checked by tests/test_import_graph.py).
_LAZY_EXPORTS = {
    "SolveResult": "repro.sat.solver",
    "Solver": "repro.sat.solver",
    "brute_force_solve": "repro.sat.brute",
    "check_assignment": "repro.sat.brute",
    "count_models": "repro.sat.brute",
    "solve_cnf": "repro.sat.solver",
}

__all__ = sorted(_LAZY_EXPORTS)


def __getattr__(name):
    target = _LAZY_EXPORTS.get(name)
    if target is not None:
        return getattr(import_module(target), name)
    qualified = f"{__name__}.{name}"
    try:
        return import_module(qualified)
    except ModuleNotFoundError as exc:
        if exc.name == qualified:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}"
            ) from None
        raise


def __dir__():
    return sorted(set(globals()) | set(__all__))
