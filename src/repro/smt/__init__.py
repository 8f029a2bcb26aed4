"""Finite-domain symbolic execution of FS programs (the paper's Fig. 7
encoding) plus SAT-query plumbing and model decoding."""

# Lazy (PEP 562), like repro.sat: the verify path imports the encoder,
# state and query modules through this package and must not load the
# model decoder, which runs only when a verdict has a witness to show.

from importlib import import_module

#: name -> defining module.  Only the named module is imported on
#: first access (checked by tests/test_import_graph.py).
_LAZY_EXPORTS = {
    "DomainValue": "repro.smt.values",
    "GENERIC_CONTENTS": "repro.smt.values",
    "OMEGA_1": "repro.smt.values",
    "OMEGA_2": "repro.smt.values",
    "PathDomains": "repro.smt.values",
    "Query": "repro.smt.query",
    "SymbolicState": "repro.smt.state",
    "SymbolicValue": "repro.smt.values",
    "V_DIR": "repro.smt.values",
    "V_DNE": "repro.smt.values",
    "VDir": "repro.smt.values",
    "VDne": "repro.smt.values",
    "VFile": "repro.smt.values",
    "apply_expr": "repro.smt.encoder",
    "assignment_for_fs": "repro.smt.state",
    "check_sat": "repro.smt.query",
    "decode_filesystem": "repro.smt.model",
    "describe_filesystem": "repro.smt.model",
    "encode_pred": "repro.smt.encoder",
    "initial_constraints": "repro.smt.state",
    "initial_state": "repro.smt.state",
    "initial_var_name": "repro.smt.values",
    "states_differ": "repro.smt.state",
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
