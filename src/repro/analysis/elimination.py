"""Eliminating resources (paper §4.4, "Eliminating Resources").

A determinism check is a conjunction of equivalence checks between all
valid permutations.  If a resource commutes with every resource that
may be scheduled *after* it in some permutation (its non-ancestors),
every permutation can be rewritten so that resource comes last, and
``e1; e ≡ e2; e  iff  e1 ≡ e2`` — so the resource can be dropped
entirely without changing the verdict.

Following the paper, elimination starts from the fringe (resources
nothing depends on) and repeats until a fixpoint, since removing a
child often unlocks its parents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.analysis.commutativity import (
    Footprint,
    footprints_commute,
    footprints_of,
)
from repro.digraph import DiGraph, ancestors
from repro.fs import syntax as fx

NodeId = Hashable


@dataclass
class EliminationReport:
    eliminated: List[NodeId] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0


def eliminate_resources(
    graph: DiGraph,
    programs: Dict[NodeId, fx.Expr],
    prints: Optional[Mapping[NodeId, Footprint]] = None,
) -> Tuple[DiGraph, EliminationReport]:
    """Drop verdict-irrelevant resources.

    ``graph`` edges point prerequisite → dependent.  Returns a new
    graph (``programs`` is not modified; dropped nodes simply no longer
    appear in the graph).  ``prints`` — the programs' footprints, when
    the caller already has them.
    """
    work = graph.copy()
    prints = footprints_of(work.nodes, programs, prints or {})
    report = EliminationReport(nodes_before=work.number_of_nodes())

    changed = True
    while changed:
        changed = False
        # Fringe: nothing depends on these.
        for node in [n for n in work.nodes if work.out_degree(n) == 0]:
            upstream = ancestors(work, node)
            others = [
                m for m in work.nodes if m != node and m not in upstream
            ]
            if all(
                footprints_commute(prints[node], prints[m]) for m in others
            ):
                work.remove_node(node)
                report.eliminated.append(node)
                changed = True
    report.nodes_after = work.number_of_nodes()
    return work, report
