"""Core resource representation shared by the frontend and the models.

A :class:`Resource` is a *primitive* Puppet resource after catalog
compilation: user-defined types have been substituted away, variables
interpolated, and defaults applied.  The resource compiler
(:mod:`repro.resources.compiler`) maps these to FS programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.errors import ResourceModelError
from repro.fs import Expr, Path, dir_, ite, mkdir, pnot, seq


@dataclass(frozen=True)
class ResourceRef:
    """``Type['title']`` — how manifests name resources."""

    rtype: str
    title: str

    def __post_init__(self):
        object.__setattr__(self, "rtype", self.rtype.lower())

    def __str__(self) -> str:
        return f"{self.rtype.capitalize()}[{self.title!r}]"


@dataclass
class Resource:
    """A primitive resource instance: type, title, attribute map."""

    rtype: str
    title: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    virtual: bool = False
    exported: bool = False
    # Source span of the declaring manifest text (1-based; 0 = unknown).
    # Excluded from equality so span threading never changes verdicts.
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def __post_init__(self):
        self.rtype = self.rtype.lower()

    @property
    def ref(self) -> ResourceRef:
        return ResourceRef(self.rtype, self.title)

    def get(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def get_str(self, name: str, default: Optional[str] = None) -> Optional[str]:
        value = self.attributes.get(name, default)
        if value is None:
            return None
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def get_bool(self, name: str, default: bool = False) -> bool:
        value = self.attributes.get(name)
        if value is None:
            return default
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            return value.strip().lower() in ("true", "yes", "1")
        return bool(value)

    def require_str(self, name: str) -> str:
        value = self.get_str(name)
        if value is None:
            raise ResourceModelError(
                f"{self.ref}: required attribute {name!r} is missing"
            )
        return value

    def __str__(self) -> str:
        return str(self.ref)


METAPARAMETERS = frozenset(
    {
        "before",
        "require",
        "notify",
        "subscribe",
        "alias",
        "noop",
        "stage",
        "tag",
        "loglevel",
        "audit",
        "schedule",
    }
)
"""Attributes consumed by the catalog, not by resource models."""


def ensure_directory_tree(
    paths: Iterable[Path], below: Optional[Path] = None
) -> Expr:
    """Emit guarded ``if (¬dir?(d)) mkdir(d)`` for every ancestor
    directory needed by ``paths``, parents before children.

    This is the *idempotent directory creation* idiom of §4.3 — the
    commutativity analysis recognizes exactly this shape and assigns the
    abstract value ``D``, letting packages that share ``/usr``-style
    trees commute.
    """
    dirs: set[Path] = set()
    for p in paths:
        for ancestor in p.ancestors():
            if ancestor.is_root:
                continue
            if below is not None and not below.is_ancestor_of(ancestor):
                if ancestor != below:
                    continue
            dirs.add(ancestor)
    # Same-depth siblings sort by name: set order varies with the hash
    # seed, and the program text feeds CNF numbering and store digests.
    ordered = sorted(dirs, key=lambda d: (d.depth(), str(d)))
    steps = [guarded_mkdir(d) for d in ordered]
    return seq(*steps)


def guarded_mkdir(path: Path) -> Expr:
    """``if (¬dir?(p)) mkdir(p)`` — ensure a directory exists."""
    return ite(pnot(dir_(path)), mkdir(path))
