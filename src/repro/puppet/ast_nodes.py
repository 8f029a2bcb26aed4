"""Abstract syntax tree for the Puppet DSL subset (paper Fig. 1 plus
the §3.1 features: defines, classes, stages, collectors, virtual
resources, conditionals, chaining arrows, defaults).

Nodes are immutable and hashable :class:`repro.node.Node` values.
Source spans (``line``/``col``) show in ``repr`` but take no part in
equality or hashing."""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.node import Node, setfield

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Literal(Expr):
    """str | int | float | bool | None (undef)."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        setfield(self, "value", value)


class InterpolatedString(Expr):
    """Raw payload of a double-quoted string; resolved at eval time."""

    __slots__ = ("raw",)

    def __init__(self, raw: str) -> None:
        setfield(self, "raw", raw)


class VariableRef(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        setfield(self, "name", name)  # may be qualified: ::top, nginx::port


class ArrayLit(Expr):
    __slots__ = ("items",)

    def __init__(self, items: Tuple[Expr, ...]) -> None:
        setfield(self, "items", items)


class HashLit(Expr):
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Expr, Expr], ...]) -> None:
        setfield(self, "entries", entries)


class ResourceRefExpr(Expr):
    """``File['/etc/motd']`` — possibly multiple titles."""

    __slots__ = ("rtype", "titles")

    def __init__(self, rtype: str, titles: Tuple[Expr, ...]) -> None:
        setfield(self, "rtype", rtype)
        setfield(self, "titles", titles)


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        setfield(self, "op", op)  # "!" | "-"
        setfield(self, "operand", operand)


class BinaryOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        setfield(self, "op", op)  # == != < <= > >= + - * / % and or in
        setfield(self, "left", left)
        setfield(self, "right", right)


class Selector(Expr):
    """``expr ? { match => value, ..., default => value }``"""

    __slots__ = ("subject", "cases")

    def __init__(
        self,
        subject: Expr,
        cases: Tuple[Tuple[Optional[Expr], Expr], ...],  # None key = default
    ) -> None:
        setfield(self, "subject", subject)
        setfield(self, "cases", cases)


class FunctionCall(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Expr, ...]) -> None:
        setfield(self, "name", name)
        setfield(self, "args", args)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    __slots__ = ("line", "col")
    _uncompared = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)


class AttributeDef(Node):
    __slots__ = ("name", "value", "add")

    def __init__(self, name: str, value: Expr, add: bool = False) -> None:
        setfield(self, "name", name)
        setfield(self, "value", value)
        setfield(self, "add", add)  # +> (append) — parsed, treated as =>


class ResourceBody(Node):
    __slots__ = ("title", "attributes", "line", "col")
    _uncompared = ("line", "col")

    def __init__(
        self,
        title: Expr,
        attributes: Tuple[AttributeDef, ...],
        line: int = 0,
        col: int = 0,
    ) -> None:
        setfield(self, "title", title)
        setfield(self, "attributes", attributes)
        setfield(self, "line", line)
        setfield(self, "col", col)


class ResourceDecl(Statement):
    __slots__ = ("rtype", "bodies", "virtual", "exported")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        rtype: str = "",
        bodies: Tuple[ResourceBody, ...] = (),
        virtual: bool = False,
        exported: bool = False,
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "rtype", rtype)
        setfield(self, "bodies", bodies)
        setfield(self, "virtual", virtual)
        setfield(self, "exported", exported)


class ResourceDefault(Statement):
    """``File { owner => root }`` — per-type attribute defaults."""

    __slots__ = ("rtype", "attributes")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        rtype: str = "",
        attributes: Tuple[AttributeDef, ...] = (),
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "rtype", rtype)
        setfield(self, "attributes", attributes)


class ResourceOverride(Statement):
    """``File['/f'] { mode => '0644' }`` — amend a declared resource."""

    __slots__ = ("ref", "attributes")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        ref: ResourceRefExpr = None,  # type: ignore[assignment]
        attributes: Tuple[AttributeDef, ...] = (),
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "ref", ref)
        setfield(self, "attributes", attributes)


class DefineDecl(Statement):
    __slots__ = ("name", "params", "body")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        name: str = "",
        params: Tuple[Tuple[str, Optional[Expr]], ...] = (),
        body: Tuple[Statement, ...] = (),
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "name", name)
        setfield(self, "params", params)
        setfield(self, "body", body)


class ClassDecl(Statement):
    __slots__ = ("name", "params", "parent", "body")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        name: str = "",
        params: Tuple[Tuple[str, Optional[Expr]], ...] = (),
        parent: Optional[str] = None,
        body: Tuple[Statement, ...] = (),
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "name", name)
        setfield(self, "params", params)
        setfield(self, "parent", parent)
        setfield(self, "body", body)


class NodeDecl(Statement):
    __slots__ = ("names", "body")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        names: Tuple[str, ...] = (),  # 'default' matches anything
        body: Tuple[Statement, ...] = (),
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "names", names)
        setfield(self, "body", body)


class Assignment(Statement):
    __slots__ = ("name", "value")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        name: str = "",
        value: Expr = None,  # type: ignore[assignment]
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "name", name)
        setfield(self, "value", value)


class IfStatement(Statement):
    __slots__ = ("branches",)

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        # None condition = else branch
        branches: Tuple[
            Tuple[Optional[Expr], Tuple[Statement, ...]], ...
        ] = (),
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "branches", branches)


class CaseStatement(Statement):
    __slots__ = ("subject", "cases")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        subject: Expr = None,  # type: ignore[assignment]
        # A case option is a tuple of match expressions; (None,) = default.
        cases: Tuple[
            Tuple[Tuple[Optional[Expr], ...], Tuple[Statement, ...]], ...
        ] = (),
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "subject", subject)
        setfield(self, "cases", cases)


class IncludeStatement(Statement):
    __slots__ = ("names", "require_edges")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        names: Tuple[str, ...] = (),
        require_edges: bool = False,  # the `require` function form
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "names", names)
        setfield(self, "require_edges", require_edges)


class CollectorQuery(Node):
    """``<| attr == 'v' and ... |>`` — None means match-all."""

    __slots__ = ("op", "attr", "value", "left", "right")

    def __init__(
        self,
        op: str = "",  # "==", "!=", "and", "or" or "" for match-all
        attr: str = "",
        value: Optional[Expr] = None,
        left: Optional["CollectorQuery"] = None,
        right: Optional["CollectorQuery"] = None,
    ) -> None:
        setfield(self, "op", op)
        setfield(self, "attr", attr)
        setfield(self, "value", value)
        setfield(self, "left", left)
        setfield(self, "right", right)


class Collector(Statement):
    __slots__ = ("rtype", "query", "overrides", "exported")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        rtype: str = "",
        query: Optional[CollectorQuery] = None,
        overrides: Tuple[AttributeDef, ...] = (),
        exported: bool = False,
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "rtype", rtype)
        setfield(self, "query", query)
        setfield(self, "overrides", overrides)
        setfield(self, "exported", exported)


ChainOperand = Union[ResourceRefExpr, Collector, ResourceDecl]


class ChainStatement(Statement):
    """``A -> B ~> C`` (arrows already normalized left-to-right)."""

    __slots__ = ("operands", "arrows")

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        operands: Tuple[ChainOperand, ...] = (),
        arrows: Tuple[str, ...] = (),  # "->" or "~>" between operands
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "operands", operands)
        setfield(self, "arrows", arrows)


class ExpressionStatement(Statement):
    """Bare function call: fail(...), notice(...), realize(...)."""

    __slots__ = ("expr",)

    def __init__(
        self,
        line: int = 0,
        col: int = 0,
        expr: FunctionCall = None,  # type: ignore[assignment]
    ) -> None:
        setfield(self, "line", line)
        setfield(self, "col", col)
        setfield(self, "expr", expr)


class Manifest(Node):
    __slots__ = ("statements",)

    def __init__(self, statements: Tuple[Statement, ...]) -> None:
        setfield(self, "statements", statements)
