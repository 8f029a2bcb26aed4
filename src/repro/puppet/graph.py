"""From catalogs to compiled resource graphs (paper Fig. 4 and §3.4).

``compile_catalog`` produces the pair the analyses consume: a
:class:`repro.digraph.DiGraph` whose nodes are primitive-resource ref strings (edges point
prerequisite → dependent) and a dict mapping each node to its compiled
FS program.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.digraph import DiGraph
from repro.fs import Expr
from repro.puppet.catalog import Catalog
from repro.resources.compiler import ModelContext, ResourceCompiler


def compile_catalog(
    catalog: Catalog,
    context: Optional[ModelContext] = None,
) -> Tuple[DiGraph, Dict[str, Expr]]:
    """Build the resource graph and compile every node with C (§3.3)."""
    graph = catalog.build_graph()
    compiler = ResourceCompiler(context)
    programs: Dict[str, Expr] = {}
    for node, data in graph.nodes(data=True):
        programs[node] = compiler.compile(data["entry"].resource)
    return graph, programs
