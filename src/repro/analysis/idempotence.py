"""Idempotence checking (paper §5).

Once a manifest is known deterministic, any valid ordering of its
resources denotes *the* function of the manifest, so sequencing one
topological order gives a single expression ``e`` and idempotence is
simply ``e ≡ e; e``.  Running this on a non-deterministic manifest
would be unsound, which is why the pipeline gates it on the
determinacy result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence

from repro.analysis.equivalence import EquivalenceResult, check_equivalence
from repro.digraph import DiGraph, topological_sort
from repro.fs import FileSystem
from repro.fs import syntax as fx

NodeId = Hashable


@dataclass
class IdempotenceResult:
    idempotent: bool
    witness_fs: Optional[FileSystem] = None
    total_seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.idempotent


def check_idempotence_expr(
    e: fx.Expr, well_formed_initial: bool = True
) -> IdempotenceResult:
    """``e ≡ e; e`` for a single expression."""
    start = time.perf_counter()
    result = check_equivalence(
        e, fx.seq(e, e), well_formed_initial=well_formed_initial
    )
    return IdempotenceResult(
        idempotent=result.equivalent,
        witness_fs=result.witness_fs,
        total_seconds=time.perf_counter() - start,
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
