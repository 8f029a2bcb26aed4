"""Absolute filesystem paths for the FS language (paper Fig. 5).

Paths form the grammar ``p ::= / | p/str``.  We represent a path as a
tuple of components so that paths are hashable, totally ordered, and
cheap to compare — the analyses put them in sets and dicts constantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


@dataclass(frozen=True, order=True)
class Path:
    """An absolute path; ``parts`` is empty for the root directory."""

    parts: tuple[str, ...]

    @staticmethod
    def root() -> "Path":
        return _ROOT

    @staticmethod
    def of(text: str) -> "Path":
        """Parse ``/a/b/c`` (trailing slashes and repeats tolerated)."""
        return _parse(text)

    @property
    def name(self) -> str:
        """Last component (the root has the empty name)."""
        if not self.parts:
            return ""
        return self.parts[-1]

    @property
    def is_root(self) -> bool:
        return not self.parts

    def parent(self) -> "Path":
        """Parent directory; the root is its own parent."""
        if not self.parts:
            return self
        return Path(self.parts[:-1])

    def child(self, name: str) -> "Path":
        if not name or "/" in name:
            raise ValueError(f"invalid path component: {name!r}")
        return Path(self.parts + (name,))

    def join(self, relative: str) -> "Path":
        """Append each component of a relative path string."""
        out = self
        for comp in relative.split("/"):
            if comp:
                out = out.child(comp)
        return out

    def ancestors(self) -> Iterator["Path"]:
        """Proper ancestors, nearest first, ending with the root."""
        cur = self
        while not cur.is_root:
            cur = cur.parent()
            yield cur

    def is_ancestor_of(self, other: "Path") -> bool:
        n = len(self.parts)
        return n < len(other.parts) and other.parts[:n] == self.parts

    def is_child_of(self, other: "Path") -> bool:
        return len(self.parts) == len(other.parts) + 1 and (
            self.parts[: len(other.parts)] == other.parts
        )

    def depth(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "/" + "/".join(self.parts)

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"


_ROOT = Path(())


@lru_cache(maxsize=4096)
def _parse(text: str) -> Path:
    if not text.startswith("/"):
        raise ValueError(f"FS paths must be absolute, got {text!r}")
    parts = tuple(comp for comp in text.split("/") if comp)
    return Path(parts)
