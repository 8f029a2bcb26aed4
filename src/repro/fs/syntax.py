"""Abstract syntax of the FS language (paper Fig. 5).

FS is a loop-free imperative language of filesystem operations.
Expressions denote functions from filesystems to a filesystem or the
error state; predicates denote boolean functions of the filesystem.

Every node is an immutable, hashable :class:`repro.node.Node` value,
so expressions can be used as dictionary keys and shared freely.
Constructors are exposed both as classes (``Mkdir(p)``) and lowercase
helpers matching the paper's notation (``mkdir(p)``, ``seq(...)``, ``ite(a, e1, e2)``).
"""

from __future__ import annotations

from typing import Iterator, Union

from repro.fs.paths import Path
from repro.node import Node, setfield

# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Pred(Node):
    """Base class for FS predicates."""

    __slots__ = ()

    def __and__(self, other: "Pred") -> "Pred":
        return pand(self, other)

    def __or__(self, other: "Pred") -> "Pred":
        return por(self, other)

    def __invert__(self) -> "Pred":
        return pnot(self)


class PTrue(Pred):
    __slots__ = ()


class PFalse(Pred):
    __slots__ = ()


class IsNone(Pred):
    """``none?(p)`` — the path does not exist."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        setfield(self, "path", path)


class IsFile(Pred):
    """``file?(p)`` — the path is a regular file."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        setfield(self, "path", path)


class IsDir(Pred):
    """``dir?(p)`` — the path is a directory."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        setfield(self, "path", path)


class IsEmptyDir(Pred):
    """``emptydir?(p)`` — a directory with no children."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        setfield(self, "path", path)


class IsFileWith(Pred):
    """``filecontains?(p, s)`` — a regular file with exactly content ``s``.

    Not in the paper's Fig. 5, but needed by resource models that only act
    when a file already holds particular content (e.g. idempotent file
    resources) and by the §5 invariant checker.  It preserves finiteness.
    """

    __slots__ = ("path", "content")

    def __init__(self, path: Path, content: str) -> None:
        setfield(self, "path", path)
        setfield(self, "content", content)


class PNot(Pred):
    __slots__ = ("inner",)

    def __init__(self, inner: Pred) -> None:
        setfield(self, "inner", inner)


class PAnd(Pred):
    __slots__ = ("left", "right")

    def __init__(self, left: Pred, right: Pred) -> None:
        setfield(self, "left", left)
        setfield(self, "right", right)


class POr(Pred):
    __slots__ = ("left", "right")

    def __init__(self, left: Pred, right: Pred) -> None:
        setfield(self, "left", left)
        setfield(self, "right", right)


TRUE = PTrue()
FALSE = PFalse()


def pnot(a: Pred) -> Pred:
    if isinstance(a, PTrue):
        return FALSE
    if isinstance(a, PFalse):
        return TRUE
    if isinstance(a, PNot):
        return a.inner
    return PNot(a)


def pand(*preds: Pred) -> Pred:
    acc: Pred = TRUE
    for p in preds:
        if isinstance(p, PFalse):
            return FALSE
        if isinstance(p, PTrue):
            continue
        acc = p if isinstance(acc, PTrue) else PAnd(acc, p)
    return acc


def por(*preds: Pred) -> Pred:
    acc: Pred = FALSE
    for p in preds:
        if isinstance(p, PTrue):
            return TRUE
        if isinstance(p, PFalse):
            continue
        acc = p if isinstance(acc, PFalse) else POr(acc, p)
    return acc


def none_(p: Path) -> Pred:
    return IsNone(p)


def file_(p: Path) -> Pred:
    return IsFile(p)


def dir_(p: Path) -> Pred:
    return IsDir(p)


def emptydir_(p: Path) -> Pred:
    return IsEmptyDir(p)


def file_with(p: Path, content: str) -> Pred:
    return IsFileWith(p, content)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for FS expressions."""

    __slots__ = ()

    def then(self, other: "Expr") -> "Expr":
        return seq(self, other)

    def __rshift__(self, other: "Expr") -> "Expr":
        return seq(self, other)


class Id(Expr):
    """``id`` — no-op."""

    __slots__ = ()


class Err(Expr):
    """``err`` — halt with error."""

    __slots__ = ()


class Mkdir(Expr):
    """``mkdir(p)`` — create a directory (parent must be a directory,
    target must not exist)."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        setfield(self, "path", path)


class Creat(Expr):
    """``creat(p, str)`` — create a file with the given content."""

    __slots__ = ("path", "content")

    def __init__(self, path: Path, content: str) -> None:
        setfield(self, "path", path)
        setfield(self, "content", content)


class Rm(Expr):
    """``rm(p)`` — remove a file or an empty directory."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        setfield(self, "path", path)


class Cp(Expr):
    """``cp(src, dst)`` — copy a regular file to a fresh destination."""

    __slots__ = ("src", "dst")

    def __init__(self, src: Path, dst: Path) -> None:
        setfield(self, "src", src)
        setfield(self, "dst", dst)


class Seq(Expr):
    """``e1; e2``."""

    __slots__ = ("first", "second")

    def __init__(self, first: Expr, second: Expr) -> None:
        setfield(self, "first", first)
        setfield(self, "second", second)


class If(Expr):
    """``if (a) e1 else e2``."""

    __slots__ = ("pred", "then_branch", "else_branch")

    def __init__(
        self, pred: Pred, then_branch: Expr, else_branch: Expr
    ) -> None:
        setfield(self, "pred", pred)
        setfield(self, "then_branch", then_branch)
        setfield(self, "else_branch", else_branch)


ID = Id()
ERR = Err()


def mkdir(p: Union[Path, str]) -> Expr:
    return Mkdir(_as_path(p))


def creat(p: Union[Path, str], content: str) -> Expr:
    return Creat(_as_path(p), content)


def rm(p: Union[Path, str]) -> Expr:
    return Rm(_as_path(p))


def cp(src: Union[Path, str], dst: Union[Path, str]) -> Expr:
    return Cp(_as_path(src), _as_path(dst))


def seq(*exprs: Expr) -> Expr:
    """Right-nested sequencing; drops ``id`` units and stops after ``err``."""
    items = [e for e in exprs if not isinstance(e, Id)]
    if not items:
        return ID
    out = items[-1]
    for e in reversed(items[:-1]):
        if isinstance(e, Err):
            return ERR
        out = Seq(e, out)
    return out


def ite(pred: Pred, then_branch: Expr, else_branch: Expr = ID) -> Expr:
    """``if (a) e1 else e2``; the paper's shorthand defaults else to id."""
    if isinstance(pred, PTrue):
        return then_branch
    if isinstance(pred, PFalse):
        return else_branch
    if then_branch == else_branch:
        return then_branch
    return If(pred, then_branch, else_branch)


def _as_path(p: Union[Path, str]) -> Path:
    return Path.of(p) if isinstance(p, str) else p


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def subexpressions(e: Expr) -> Iterator[Expr]:
    """All subexpressions, root first."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Seq):
            stack.append(cur.second)
            stack.append(cur.first)
        elif isinstance(cur, If):
            stack.append(cur.else_branch)
            stack.append(cur.then_branch)


def expr_size(e: Expr) -> int:
    """Number of AST nodes (predicates count as one node each)."""
    return sum(1 for _ in subexpressions(e))
