"""Concrete filesystem states for the FS language (paper Fig. 5).

A filesystem maps paths to contents: either ``DIR`` or ``FileContent``.
States are immutable; updates return new states.  A distinguished
well-formedness notion (children imply directory parents) matches what
real machines provide and is what the logical encoding assumes of
*initial* states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from repro.fs.paths import Path


@dataclass(frozen=True)
class Dir:
    """The content of a directory entry."""

    def __repr__(self) -> str:
        return "Dir"


@dataclass(frozen=True)
class FileContent:
    """The content of a regular file."""

    data: str

    def __repr__(self) -> str:
        return f"File({self.data!r})"


Content = Union[Dir, FileContent]

DIR = Dir()


class FileSystem:
    """An immutable map from paths to contents.

    The root path is implicitly a directory and is never stored in the
    map; ``lookup(Path.root())`` always returns ``DIR``.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Optional[Mapping[Path, Content]] = None):
        items = dict(entries or {})
        items.pop(Path.root(), None)
        self._entries: dict[Path, Content] = items
        self._hash: Optional[int] = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty() -> "FileSystem":
        return _EMPTY

    @staticmethod
    def of(**kwargs: str) -> "FileSystem":
        """Convenience for tests: ``FileSystem.of(**{"/a": "dir", ...})``
        is awkward, so pass entries via :meth:`from_dict` instead."""
        raise NotImplementedError("use FileSystem.from_dict")

    @staticmethod
    def from_dict(entries: Mapping[str, Optional[str]]) -> "FileSystem":
        """Build a filesystem from ``{"/a": None, "/a/f": "text"}`` where
        ``None`` marks a directory and a string marks file content."""
        out: dict[Path, Content] = {}
        for raw, value in entries.items():
            path = Path.of(raw)
            out[path] = DIR if value is None else FileContent(value)
        return FileSystem(out)

    # -- queries -----------------------------------------------------------

    def lookup(self, path: Path) -> Optional[Content]:
        if path.is_root:
            return DIR
        return self._entries.get(path)

    def exists(self, path: Path) -> bool:
        return path.is_root or path in self._entries

    def is_dir(self, path: Path) -> bool:
        return isinstance(self.lookup(path), Dir)

    def is_file(self, path: Path) -> bool:
        return isinstance(self.lookup(path), FileContent)

    def file_content(self, path: Path) -> Optional[str]:
        entry = self.lookup(path)
        return entry.data if isinstance(entry, FileContent) else None

    def children(self, path: Path) -> Iterator[Path]:
        for p in self._entries:
            if p.is_child_of(path):
                yield p

    def has_children(self, path: Path) -> bool:
        return any(True for _ in self.children(path))

    def is_empty_dir(self, path: Path) -> bool:
        return self.is_dir(path) and not self.has_children(path)

    def paths(self) -> Iterator[Path]:
        return iter(self._entries)

    def is_well_formed(self) -> bool:
        """Every stored path's parent is a directory."""
        return all(
            self.is_dir(p.parent()) for p in self._entries
        )

    # -- updates -----------------------------------------------------------

    def with_entry(self, path: Path, content: Content) -> "FileSystem":
        if path.is_root:
            raise ValueError("cannot overwrite the root directory")
        items = dict(self._entries)
        items[path] = content
        return FileSystem(items)

    def without_entry(self, path: Path) -> "FileSystem":
        items = dict(self._entries)
        items.pop(path, None)
        return FileSystem(items)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FileSystem):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        if not self._entries:
            return "FileSystem(empty)"
        rows = ", ".join(
            f"{p}={c!r}" for p, c in sorted(self._entries.items())
        )
        return f"FileSystem({rows})"

    def pretty(self) -> str:
        """Multi-line human-readable listing, sorted by path."""
        if not self._entries:
            return "(empty filesystem)"
        lines = []
        for p in sorted(self._entries):
            entry = self._entries[p]
            if isinstance(entry, Dir):
                lines.append(f"{p}/")
            else:
                lines.append(f"{p}  {entry.data!r}")
        return "\n".join(lines)


_EMPTY = FileSystem()
