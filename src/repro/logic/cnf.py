"""Tseitin transformation from formula DAGs to CNF.

Each internal DAG node gets a fresh propositional variable; clauses
constrain it to equal its definition.  The transformation is
equisatisfiable and linear in DAG size.  Negative literals are encoded
as negative integers (DIMACS convention); variable 0 is never used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.logic.terms import Term, TermBank, iter_dag

Clause = List[int]


@dataclass
class CNF:
    """A CNF instance plus the mapping back to named variables."""

    num_vars: int = 0
    clauses: List[Clause] = field(default_factory=list)
    var_ids: Dict[str, int] = field(default_factory=dict)

    def new_var(self, name: Optional[str] = None) -> int:
        self.num_vars += 1
        if name is not None:
            self.var_ids[name] = self.num_vars
        return self.num_vars

    def add(self, clause: Clause) -> None:
        self.clauses.append(clause)

    def decode(self, assignment: Dict[int, bool]) -> Dict[str, bool]:
        """Restrict a solver assignment to the named (input) variables."""
        return {
            name: assignment.get(vid, False)
            for name, vid in self.var_ids.items()
        }


class TseitinEncoder:
    """Incremental Tseitin encoder with a persistent node cache.

    Encoding several terms of one :class:`~repro.logic.terms.TermBank`
    through the same encoder shares the definitional variables of every
    common subterm: a DAG node is clausified exactly once, no matter
    how many asserted terms it appears in.  This is what lets a batch
    of structurally-overlapping queries (e.g. the per-pair determinacy
    differences) reuse one CNF and one solver instance.
    """

    def __init__(self, cnf: Optional[CNF] = None):
        self.cnf = cnf if cnf is not None else CNF()
        self._node_lit: Dict[int, int] = {}

    def lit(self, root: Term) -> int:
        """The CNF literal defined to be equivalent to ``root``,
        emitting definition clauses for nodes not yet encoded."""
        cnf = self.cnf
        node_lit = self._node_lit

        def lit_of_const(value: bool) -> int:
            # Constants get dedicated variables pinned by unit clauses
            # (rare: constant folding removes most constants first).
            name = "$true" if value else "$false"
            vid = cnf.var_ids.get(name)
            if vid is None:
                vid = cnf.new_var(name)
                cnf.add([vid] if value else [-vid])
            return vid

        for node in _topo_order(root, node_lit):
            if node.uid in node_lit:
                continue
            if node.kind == "true":
                node_lit[node.uid] = lit_of_const(True)
            elif node.kind == "false":
                node_lit[node.uid] = lit_of_const(False)
            elif node.kind == "var":
                vid = cnf.var_ids.get(node.name)
                if vid is None:
                    vid = cnf.new_var(node.name)
                node_lit[node.uid] = vid
            elif node.kind == "not":
                node_lit[node.uid] = -node_lit[node.args[0].uid]
            elif node.kind == "and":
                fresh = cnf.new_var()
                child_lits = [node_lit[a.uid] for a in node.args]
                for cl in child_lits:
                    cnf.add([-fresh, cl])
                cnf.add([fresh] + [-cl for cl in child_lits])
                node_lit[node.uid] = fresh
            elif node.kind == "or":
                fresh = cnf.new_var()
                child_lits = [node_lit[a.uid] for a in node.args]
                for cl in child_lits:
                    cnf.add([fresh, -cl])
                cnf.add([-fresh] + child_lits)
                node_lit[node.uid] = fresh
            else:
                raise TypeError(f"unknown term kind: {node.kind}")
        return node_lit[root.uid]


def tseitin(root: Term, bank: TermBank, cnf: Optional[CNF] = None) -> tuple[CNF, int]:
    """Encode ``root`` into ``cnf``; returns the CNF and the root literal.

    The caller typically asserts the root literal as a unit clause:
    ``cnf.add([lit])``.  Passing an existing CNF allows several terms to
    share named input variables.  For sharing *internal* subterm
    variables across several terms, keep a :class:`TseitinEncoder`.
    """
    encoder = TseitinEncoder(cnf)
    lit = encoder.lit(root)
    return encoder.cnf, lit


def _topo_order(
    root: Term, already: Optional[Dict[int, int]] = None
) -> List[Term]:
    """Children-before-parents order over the DAG (iterative); nodes
    present in ``already`` (an encoded-node cache) are not revisited."""
    order: List[Term] = []
    state: Dict[int, int] = {}  # 0 = visiting, 1 = done
    stack: List[tuple[Term, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[node.uid] = 1
            order.append(node)
            continue
        if state.get(node.uid) == 1:
            continue
        if state.get(node.uid) == 0:
            continue
        if already is not None and node.uid in already:
            continue
        state[node.uid] = 0
        stack.append((node, True))
        for arg in node.args:
            if state.get(arg.uid) != 1:
                stack.append((arg, False))
    return order
