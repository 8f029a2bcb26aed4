"""The paper's analyses: commutativity (§4.3), definitive writes and
pruning (§4.4), resource elimination (§4.4), determinacy (§4, Thm. 1),
equivalence/idempotence and invariants (§5)."""

# Lazy (PEP 562), like repro itself: importing one analysis (the
# pipeline imports determinism) must not load the other analyses it
# never runs.

from repro import _lazy_hooks

#: name -> defining module.  Only the named module is imported on
#: first access, which keeps the one-shot CLI's import cost down
#: (checked by tests/test_import_graph.py).
_LAZY_EXPORTS = {
    "AFile": "repro.analysis.definitive",
    "A_DIR": "repro.analysis.definitive",
    "A_DNE": "repro.analysis.definitive",
    "Access": "repro.analysis.commutativity",
    "BOT": "repro.analysis.definitive",
    "DeterminismOptions": "repro.analysis.determinism",
    "DeterminismResult": "repro.analysis.determinism",
    "DeterminismStats": "repro.analysis.determinism",
    "EliminationReport": "repro.analysis.elimination",
    "EquivalenceResult": "repro.analysis.equivalence",
    "Footprint": "repro.analysis.commutativity",
    "IdempotenceResult": "repro.analysis.idempotence",
    "InvariantResult": "repro.analysis.invariants",
    "PruneReport": "repro.analysis.pruning",
    "RaceReport": "repro.analysis.localize",
    "TOP": "repro.analysis.definitive",
    "WriteProfile": "repro.analysis.definitive",
    "analyze_definitive": "repro.analysis.definitive",
    "check_commutes_semantically": "repro.analysis.equivalence",
    "check_determinism": "repro.analysis.determinism",
    "check_equivalence": "repro.analysis.equivalence",
    "check_idempotence": "repro.analysis.idempotence",
    "check_idempotence_expr": "repro.analysis.idempotence",
    "check_invariant": "repro.analysis.invariants",
    "eliminate_resources": "repro.analysis.elimination",
    "ensures_absent": "repro.analysis.invariants",
    "ensures_directory": "repro.analysis.invariants",
    "ensures_file": "repro.analysis.invariants",
    "ensures_present": "repro.analysis.invariants",
    "exprs_commute": "repro.analysis.commutativity",
    "footprint": "repro.analysis.commutativity",
    "footprints_commute": "repro.analysis.commutativity",
    "localize_race": "repro.analysis.localize",
    "prune": "repro.analysis.pruning",
    "prune_manifest": "repro.analysis.pruning",
}

__all__ = sorted(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_hooks(globals(), _LAZY_EXPORTS)
