"""Finite path-state domains and symbolic values.

Each path's state ranges over the finite domain
``{dir, dne} ∪ {file(c) : c ∈ contents(p)}`` where ``contents(p)`` is
computed by a content-flow analysis over the program (literals written
to the path, contents reachable through ``cp`` chains, contents named
by predicates) plus two *generic* contents ω₁, ω₂ representing
arbitrary contents distinct from every literal.  Contents are observed
in two ways: by ``filecontains?`` predicates, which only compare against
a literal, and by equality of final states.  A literal tested at a path
is therefore also in the domain of every path that can ``cp`` into it,
since an initial content copied there can pass the test.  Beyond the
tested literals, two generics suffice for completeness: with two
generics any two independent initial contents can always be made to
differ (see DESIGN.md).

A symbolic value is an *indicator map*: domain value → boolean term
(the formula under which the path holds that value).  Under the
exactly-one constraint on initial variables the map always sums to
one, which makes equality a simple inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.fs import syntax as fx
from repro.fs.domain import domain_of
from repro.fs.filesystem import Content, FileContent
from repro.fs.paths import Path
from repro.logic.terms import Term, TermBank

OMEGA_1 = "ω_1"
OMEGA_2 = "ω_2"
GENERIC_CONTENTS = (OMEGA_1, OMEGA_2)


@dataclass(frozen=True, order=True)
class VDir:
    def __repr__(self) -> str:
        return "dir"


@dataclass(frozen=True, order=True)
class VDne:
    def __repr__(self) -> str:
        return "dne"


@dataclass(frozen=True, order=True)
class VFile:
    content: str

    def __repr__(self) -> str:
        return f"file({self.content!r})"


DomainValue = Union[VDir, VDne, VFile]
V_DIR = VDir()
V_DNE = VDne()


def value_of_content(content: Optional[Content]) -> DomainValue:
    """Concrete filesystem entry → domain value."""
    if content is None:
        return V_DNE
    if not isinstance(content, FileContent):
        return V_DIR
    assert isinstance(content, FileContent)
    return VFile(content.data)


class PathDomains:
    """Per-path value domains for a program (set of FS expressions)."""

    def __init__(self, paths: Iterable[Path], contents: Mapping[Path, set[str]]):
        self.paths: list[Path] = sorted(set(paths))
        self._contents: Dict[Path, set[str]] = {
            p: set(contents.get(p, set())) | set(GENERIC_CONTENTS)
            for p in self.paths
        }

    @staticmethod
    def for_exprs(exprs: Iterable[fx.Expr]) -> "PathDomains":
        """Compute dom(G) (Fig. 8) and per-path content sets by a
        content-flow fixpoint over ``creat``/``cp``/``filecontains?``."""
        exprs = list(exprs)
        paths = domain_of(exprs)
        contents: Dict[Path, set[str]] = {p: set() for p in paths}
        tested: Dict[Path, set[str]] = {}
        copies: list[tuple[Path, Path]] = []
        for e in exprs:
            for node in fx.subexpressions(e):
                if isinstance(node, fx.Creat):
                    contents.setdefault(node.path, set()).add(node.content)
                elif isinstance(node, fx.Cp):
                    copies.append((node.src, node.dst))
                elif isinstance(node, fx.If):
                    for pred in _pred_nodes(node.pred):
                        if isinstance(pred, fx.IsFileWith):
                            tested.setdefault(pred.path, set()).add(
                                pred.content
                            )
        # A tested literal flows backwards along cp: the source may
        # initially hold it, and the copy then passes the test.
        changed = True
        while changed:
            changed = False
            for src, dst in copies:
                dst_set = tested.get(dst, set())
                src_set = tested.setdefault(src, set())
                if not dst_set <= src_set:
                    src_set |= dst_set
                    changed = True
        for path, literals in tested.items():
            contents.setdefault(path, set()).update(literals)
        changed = True
        while changed:
            changed = False
            for src, dst in copies:
                src_set = contents.get(src, set())
                dst_set = contents.setdefault(dst, set())
                if not src_set <= dst_set:
                    dst_set |= src_set
                    changed = True
        return PathDomains(paths, contents)

    def values(self, path: Path) -> list[DomainValue]:
        out: list[DomainValue] = [V_DIR, V_DNE]
        out.extend(VFile(c) for c in sorted(self._contents.get(path, set())))
        return out

    def contents(self, path: Path) -> set[str]:
        return set(self._contents.get(path, set()))

    def __contains__(self, path: Path) -> bool:
        return path in self._contents

    def __len__(self) -> int:
        return len(self.paths)


def _pred_nodes(pred: fx.Pred):
    stack = [pred]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, fx.PNot):
            stack.append(cur.inner)
        elif isinstance(cur, (fx.PAnd, fx.POr)):
            stack.append(cur.left)
            stack.append(cur.right)


class SymbolicValue:
    """Indicator map: domain value → term (formula for holding it)."""

    __slots__ = ("indicators", "_fingerprint")

    def __init__(self, indicators: Dict[DomainValue, Term]):
        self.indicators = indicators
        self._fingerprint: Optional[frozenset] = None

    def fingerprint(self) -> frozenset:
        """Order-independent structural identity: the set of
        (domain value, term uid) pairs.  Terms are hash-consed by
        their bank, so within one bank two values with equal
        fingerprints denote the same function of the initial state —
        uid comparison stands in for structural term equality.
        Computed once and cached (values are immutable)."""
        fp = self._fingerprint
        if fp is None:
            fp = frozenset(
                (value, term.uid)
                for value, term in self.indicators.items()
            )
            self._fingerprint = fp
        return fp

    @staticmethod
    def const(bank: TermBank, value: DomainValue) -> "SymbolicValue":
        return SymbolicValue({value: bank.TRUE})

    def get(self, bank: TermBank, value: DomainValue) -> Term:
        return self.indicators.get(value, bank.FALSE)

    def is_dir(self, bank: TermBank) -> Term:
        return self.get(bank, V_DIR)

    def is_dne(self, bank: TermBank) -> Term:
        return self.get(bank, V_DNE)

    def is_file(self, bank: TermBank) -> Term:
        return bank.or_(
            *[
                t
                for v, t in self.indicators.items()
                if isinstance(v, VFile)
            ]
        )

    def has_content(self, bank: TermBank, content: str) -> Term:
        return self.get(bank, VFile(content))

    @staticmethod
    def ite(
        bank: TermBank, guard: Term, then_v: "SymbolicValue", else_v: "SymbolicValue"
    ) -> "SymbolicValue":
        if then_v is else_v:
            return then_v
        # Insertion order, not set order: VFile keys hash their content
        # string, so a set would intern the terms below (and number the
        # CNF built from them) differently under each hash seed.
        keys = dict.fromkeys(then_v.indicators)
        keys.update(dict.fromkeys(else_v.indicators))
        not_guard = bank.not_(guard)
        out: Dict[DomainValue, Term] = {}
        for key in keys:
            t1 = then_v.indicators.get(key, bank.FALSE)
            t2 = else_v.indicators.get(key, bank.FALSE)
            if t1 is t2:
                term = t1
            else:
                term = bank.or_(bank.and_(guard, t1), bank.and_(not_guard, t2))
            if term is not bank.FALSE:
                out[key] = term
        return SymbolicValue(out)

    def equals(self, bank: TermBank, other: "SymbolicValue") -> Term:
        """Inner product: both hold the same value.  Valid because the
        indicator maps are exactly-one under the initial-state
        constraints."""
        if self is other:
            return bank.TRUE
        terms = []
        for key in self.indicators:
            if key not in other.indicators:
                continue
            t1 = self.indicators[key]
            t2 = other.indicators[key]
            if t1 is t2:
                terms.append(t1)
            else:
                terms.append(bank.and_(t1, t2))
        return bank.or_(*terms)

    def __repr__(self) -> str:
        rows = ", ".join(f"{v!r}" for v in self.indicators)
        return f"SymbolicValue({rows})"


def initial_var_name(path: Path, value: DomainValue) -> str:
    if isinstance(value, VDir):
        suffix = "dir"
    elif isinstance(value, VDne):
        suffix = "dne"
    else:
        suffix = f"file:{value.content}"
    return f"init[{path}]={suffix}"
