"""Hash-consed boolean formulas.

The symbolic execution of FS programs builds very large formula DAGs
with heavy sharing (the same sub-state formulas appear in many branch
states).  A :class:`TermBank` interns every node so that structurally
equal terms are pointer-equal, constant-folds trivial cases, and keeps
memory linear in the number of *distinct* subterms.

Terms are plain integers? No — terms are small immutable node objects
owned by their bank; identity comparison is valid within one bank.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Tuple


@dataclass(frozen=True)
class Term:
    """A node in the formula DAG.

    ``kind`` is one of ``"true" | "false" | "var" | "not" | "and" | "or"``.
    ``args`` holds child terms; ``name`` is set for variables only.
    Use :class:`TermBank` to construct terms — do not instantiate
    directly, or sharing and constant folding are lost.
    """

    kind: str
    args: Tuple["Term", ...] = ()
    name: str = ""
    uid: int = field(default=0, compare=False)

    def __repr__(self) -> str:
        return term_to_str(self)


def term_to_str(t: Term, max_depth: int = 6) -> str:
    if t.kind == "true":
        return "true"
    if t.kind == "false":
        return "false"
    if t.kind == "var":
        return t.name
    if max_depth <= 0:
        return "..."
    inner = ", ".join(term_to_str(a, max_depth - 1) for a in t.args)
    return f"{t.kind}({inner})"


class TermBank:
    """Interning factory for :class:`Term` nodes.

    Guarantees: structural equality implies identity; ``and_``/``or_``
    flatten nested same-kind nodes, drop units, short-circuit on
    dominators, and sort arguments for canonical form; double negation
    cancels.

    Construction is thread-safe: interning serializes on a lock, so
    concurrent builders sharing one bank can never mint two nodes for
    one structural key or reuse a uid.  Everything else is reads of
    immutable nodes and needs no locking.
    """

    def __init__(self) -> None:
        self._intern: Dict[tuple, Term] = {}
        self._lock = threading.Lock()
        self._next_uid = 2
        self.TRUE = Term("true", uid=0)
        self.FALSE = Term("false", uid=1)
        self._intern[("true",)] = self.TRUE
        self._intern[("false",)] = self.FALSE
        self._vars: Dict[str, Term] = {}

    # -- construction -------------------------------------------------------

    def var(self, name: str) -> Term:
        existing = self._vars.get(name)
        if existing is not None:
            return existing
        t = self._mk(("var", name), "var", (), name)
        self._vars[name] = t
        return t

    def const(self, value: bool) -> Term:
        return self.TRUE if value else self.FALSE

    def not_(self, t: Term) -> Term:
        if t is self.TRUE:
            return self.FALSE
        if t is self.FALSE:
            return self.TRUE
        if t.kind == "not":
            return t.args[0]
        return self._mk(("not", t.uid), "not", (t,))

    def and_(self, *terms: Term) -> Term:
        return self._nary("and", self.TRUE, self.FALSE, terms)

    def or_(self, *terms: Term) -> Term:
        return self._nary("or", self.FALSE, self.TRUE, terms)

    def implies(self, a: Term, b: Term) -> Term:
        return self.or_(self.not_(a), b)

    def iff(self, a: Term, b: Term) -> Term:
        if a is b:
            return self.TRUE
        return self.and_(self.implies(a, b), self.implies(b, a))

    def xor(self, a: Term, b: Term) -> Term:
        return self.not_(self.iff(a, b))

    def ite(self, cond: Term, then_t: Term, else_t: Term) -> Term:
        if cond is self.TRUE:
            return then_t
        if cond is self.FALSE:
            return else_t
        if then_t is else_t:
            return then_t
        return self.or_(
            self.and_(cond, then_t), self.and_(self.not_(cond), else_t)
        )

    def exactly_one(self, terms: Iterable[Term]) -> Term:
        """Pairwise at-most-one plus at-least-one."""
        items = list(terms)
        at_least = self.or_(*items)
        at_most = [
            self.not_(self.and_(items[i], items[j]))
            for i in range(len(items))
            for j in range(i + 1, len(items))
        ]
        return self.and_(at_least, *at_most)

    # -- internals ----------------------------------------------------------

    def _nary(
        self, kind: str, unit: Term, dominator: Term, terms: Tuple[Term, ...]
    ) -> Term:
        flat: list[Term] = []
        seen: set[int] = set()
        stack = list(reversed(terms))
        while stack:
            t = stack.pop()
            if t is dominator:
                return dominator
            if t is unit:
                continue
            if t.kind == kind:
                stack.extend(reversed(t.args))
                continue
            if t.uid not in seen:
                seen.add(t.uid)
                flat.append(t)
        # x and not-x in the same conjunction/disjunction collapses.
        for t in flat:
            if t.kind == "not" and t.args[0].uid in seen:
                return dominator
        if not flat:
            return unit
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=lambda t: t.uid)
        key = (kind,) + tuple(t.uid for t in flat)
        return self._mk(key, kind, tuple(flat))

    def _mk(
        self, key: tuple, kind: str, args: Tuple[Term, ...], name: str = ""
    ) -> Term:
        # Lock-free fast path: hits are the common case and a dict read
        # is atomic; the check-then-insert (and the uid bump) must be
        # serialized or two threads can intern distinct twins.
        existing = self._intern.get(key)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._intern.get(key)
            if existing is not None:
                return existing
            t = Term(kind, args, name, uid=self._next_uid)
            self._next_uid += 1
            self._intern[key] = t
            return t

    # -- inspection -----------------------------------------------------------

    def variables(self, t: Term) -> set[str]:
        """Variable names occurring in a term DAG."""
        out: set[str] = set()
        seen: set[int] = set()
        stack = [t]
        while stack:
            cur = stack.pop()
            if cur.uid in seen:
                continue
            seen.add(cur.uid)
            if cur.kind == "var":
                out.add(cur.name)
            else:
                stack.extend(cur.args)
        return out

    def evaluate(self, t: Term, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment (used for model checking
        and in tests); missing variables default to False."""
        memo: Dict[int, bool] = {}

        def go(node: Term) -> bool:
            cached = memo.get(node.uid)
            if cached is not None:
                return cached
            if node.kind == "true":
                value = True
            elif node.kind == "false":
                value = False
            elif node.kind == "var":
                value = assignment.get(node.name, False)
            elif node.kind == "not":
                value = not go(node.args[0])
            elif node.kind == "and":
                value = all(go(a) for a in node.args)
            elif node.kind == "or":
                value = any(go(a) for a in node.args)
            else:
                raise TypeError(f"unknown term kind: {node.kind}")
            memo[node.uid] = value
            return value

        return go(t)


def iter_dag(t: Term) -> Iterator[Term]:
    """All distinct nodes reachable from ``t``."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if cur.uid in seen:
            continue
        seen.add(cur.uid)
        yield cur
        stack.extend(cur.args)


def dag_size(t: Term) -> int:
    return sum(1 for _ in iter_dag(t))
