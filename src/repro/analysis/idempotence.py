"""Idempotence checking (paper §5).

Once a manifest is known deterministic, any valid ordering of its
resources denotes *the* function of the manifest, so sequencing one
topological order gives a single expression ``e`` and idempotence is
simply ``e ≡ e; e``.  Running this on a non-deterministic manifest
would be unsound, which is why the pipeline gates it on the
determinacy result.

The check tries a proof by rewriting first and asks SAT only when
that fails:

1. **Proof.** :func:`repro.fs.rewrite.simplify` preserves meaning on
   every input filesystem (``simplify(x) ≡ x``), so
   ``simplify(e; e) == simplify(e)`` gives
   ``e; e ≡ simplify(e; e) = simplify(e) ≡ e`` on *all* states — a
   stronger result than the well-formed-initial query.
   :func:`repro.fs.rewrite.proves_idempotent` decides that equality in
   one rewriting pass: it simplifies ``e`` once, then the second copy
   from what the first leaves behind, and succeeds when that second
   copy folds to ``id`` (every guard towards the no-op branch).
2. **Exact fallback.** Otherwise the SAT query
   ``check_equivalence(e, e; e)`` runs on the unsimplified
   expressions, so every non-idempotent verdict and witness is the
   one the query alone gives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.digraph import DiGraph, topological_sort
from repro.fs import FileSystem
from repro.fs import syntax as fx
from repro.fs.rewrite import proves_idempotent

NodeId = Hashable


@dataclass
class IdempotenceResult:
    idempotent: bool
    witness_fs: Optional[FileSystem] = None
    total_seconds: float = 0.0
    #: SAT queries asked: 0 when rewriting proved idempotence, 1 when
    #: the check fell back to the exact query.
    sat_queries: int = 0

    def __bool__(self) -> bool:
        return self.idempotent


def check_idempotence_expr(
    e: fx.Expr, well_formed_initial: bool = True
) -> IdempotenceResult:
    """``e ≡ e; e`` for a single expression."""
    start = time.perf_counter()
    if proves_idempotent(e):
        return IdempotenceResult(
            idempotent=True, total_seconds=time.perf_counter() - start
        )
    from repro.analysis.equivalence import check_equivalence

    result = check_equivalence(
        e, fx.seq(e, e), well_formed_initial=well_formed_initial
    )
    return IdempotenceResult(
        idempotent=result.equivalent,
        witness_fs=result.witness_fs,
        total_seconds=time.perf_counter() - start,
        sat_queries=1,
    )


def check_idempotence(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    well_formed_initial: bool = True,
) -> IdempotenceResult:
    """Idempotence of a *deterministic* resource graph: sequence any
    topological order and check ``e ≡ e; e``."""
    order = topological_sort(graph)
    e = fx.seq(*[programs[n] for n in order])
    return check_idempotence_expr(e, well_formed_initial)
