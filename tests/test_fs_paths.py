"""Unit tests for repro.fs.paths."""

import pytest

from repro.fs.paths import Path


class TestParsing:
    def test_root(self):
        assert Path.of("/") == Path.root()
        assert Path.of("/").is_root

    def test_simple(self):
        assert Path.of("/a/b").parts == ("a", "b")

    def test_trailing_slash(self):
        assert Path.of("/a/b/") == Path.of("/a/b")

    def test_repeated_slashes(self):
        assert Path.of("/a//b") == Path.of("/a/b")

    def test_relative_rejected(self):
        with pytest.raises(ValueError):
            Path.of("a/b")

    def test_str_roundtrip(self):
        assert str(Path.of("/etc/apache2/sites")) == "/etc/apache2/sites"
        assert str(Path.root()) == "/"


class TestStructure:
    def test_parent(self):
        assert Path.of("/a/b").parent() == Path.of("/a")
        assert Path.of("/a").parent() == Path.root()

    def test_root_parent_is_root(self):
        assert Path.root().parent() == Path.root()

    def test_child(self):
        assert Path.of("/a").child("b") == Path.of("/a/b")

    def test_child_rejects_slash(self):
        with pytest.raises(ValueError):
            Path.of("/a").child("b/c")

    def test_child_rejects_empty(self):
        with pytest.raises(ValueError):
            Path.of("/a").child("")

    def test_join(self):
        assert Path.of("/a").join("b/c") == Path.of("/a/b/c")

    def test_name(self):
        assert Path.of("/a/b").name == "b"
        assert Path.root().name == ""

    def test_depth(self):
        assert Path.root().depth() == 0
        assert Path.of("/a/b/c").depth() == 3


class TestRelations:
    def test_ancestors(self):
        got = list(Path.of("/a/b/c").ancestors())
        assert got == [Path.of("/a/b"), Path.of("/a"), Path.root()]

    def test_is_ancestor_of(self):
        assert Path.of("/a").is_ancestor_of(Path.of("/a/b/c"))
        assert not Path.of("/a/b").is_ancestor_of(Path.of("/a"))
        assert not Path.of("/a").is_ancestor_of(Path.of("/a"))
        assert not Path.of("/a").is_ancestor_of(Path.of("/ab"))

    def test_is_child_of(self):
        assert Path.of("/a/b").is_child_of(Path.of("/a"))
        assert not Path.of("/a/b/c").is_child_of(Path.of("/a"))
        assert Path.of("/a").is_child_of(Path.root())

    def test_ordering_is_total(self):
        paths = [Path.of("/b"), Path.of("/a/c"), Path.of("/a")]
        assert sorted(paths) == [
            Path.of("/a"),
            Path.of("/a/c"),
            Path.of("/b"),
        ]

    def test_hashable(self):
        assert len({Path.of("/a"), Path.of("/a"), Path.of("/b")}) == 2

