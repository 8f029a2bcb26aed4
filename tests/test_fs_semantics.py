"""Unit tests for the FS reference semantics (paper Fig. 5)."""

from repro.fs import (
    DIR,
    ERROR,
    FileSystem,
    Path,
    cp,
    creat,
    dir_,
    emptydir_,
    eval_expr,
    eval_pred,
    file_,
    file_with,
    ite,
    mkdir,
    none_,
    pand,
    pnot,
    por,
    rm,
    seq,
    ERR,
    FALSE,
    TRUE,
    ID,
)


def fs(entries=None):
    return FileSystem.from_dict(entries or {})


class TestPredicates:
    def test_none_on_empty(self):
        assert eval_pred(none_(Path.of("/a")), fs())

    def test_root_is_dir(self):
        assert eval_pred(dir_(Path.root()), fs())
        assert not eval_pred(none_(Path.root()), fs())

    def test_file(self):
        state = fs({"/a": None, "/a/f": "x"})
        assert eval_pred(file_(Path.of("/a/f")), state)
        assert not eval_pred(file_(Path.of("/a")), state)

    def test_dir(self):
        state = fs({"/a": None})
        assert eval_pred(dir_(Path.of("/a")), state)
        assert not eval_pred(dir_(Path.of("/missing")), state)

    def test_emptydir(self):
        state = fs({"/a": None, "/b": None, "/b/f": "x"})
        assert eval_pred(emptydir_(Path.of("/a")), state)
        assert not eval_pred(emptydir_(Path.of("/b")), state)

    def test_emptydir_on_file(self):
        state = fs({"/f": "x"})
        assert not eval_pred(emptydir_(Path.of("/f")), state)

    def test_file_with(self):
        state = fs({"/f": "hello"})
        assert eval_pred(file_with(Path.of("/f"), "hello"), state)
        assert not eval_pred(file_with(Path.of("/f"), "other"), state)

    def test_connectives(self):
        state = fs({"/a": None})
        p = Path.of("/a")
        assert eval_pred(pand(dir_(p), pnot(file_(p))), state)
        assert eval_pred(por(file_(p), dir_(p)), state)
        assert not eval_pred(pand(dir_(p), file_(p)), state)


class TestMkdir:
    def test_creates_directory(self):
        out = eval_expr(mkdir("/a"), fs())
        assert out.is_dir(Path.of("/a"))

    def test_requires_parent(self):
        assert eval_expr(mkdir("/a/b"), fs()) is ERROR

    def test_requires_absent(self):
        assert eval_expr(mkdir("/a"), fs({"/a": None})) is ERROR
        assert eval_expr(mkdir("/a"), fs({"/a": "f"})) is ERROR

    def test_nested(self):
        out = eval_expr(seq(mkdir("/a"), mkdir("/a/b")), fs())
        assert out.is_dir(Path.of("/a/b"))


class TestCreat:
    def test_creates_file(self):
        out = eval_expr(creat("/f", "data"), fs())
        assert out.file_content(Path.of("/f")) == "data"

    def test_requires_parent_dir(self):
        assert eval_expr(creat("/a/f", "x"), fs()) is ERROR
        assert eval_expr(creat("/a/f", "x"), fs({"/a": "file"})) is ERROR

    def test_no_overwrite(self):
        assert eval_expr(creat("/f", "x"), fs({"/f": "old"})) is ERROR


class TestRm:
    def test_removes_file(self):
        out = eval_expr(rm("/f"), fs({"/f": "x"}))
        assert not out.exists(Path.of("/f"))

    def test_removes_empty_dir(self):
        out = eval_expr(rm("/d"), fs({"/d": None}))
        assert not out.exists(Path.of("/d"))

    def test_rejects_nonempty_dir(self):
        assert eval_expr(rm("/d"), fs({"/d": None, "/d/f": "x"})) is ERROR

    def test_rejects_missing(self):
        assert eval_expr(rm("/nope"), fs()) is ERROR


class TestCp:
    def test_copies_content(self):
        out = eval_expr(cp("/src", "/dst"), fs({"/src": "payload"}))
        assert out.file_content(Path.of("/dst")) == "payload"

    def test_requires_source_file(self):
        assert eval_expr(cp("/src", "/dst"), fs()) is ERROR
        assert eval_expr(cp("/src", "/dst"), fs({"/src": None})) is ERROR

    def test_requires_fresh_destination(self):
        state = fs({"/src": "x", "/dst": "y"})
        assert eval_expr(cp("/src", "/dst"), state) is ERROR

    def test_requires_destination_parent(self):
        assert eval_expr(cp("/src", "/a/dst"), fs({"/src": "x"})) is ERROR


class TestCompound:
    def test_seq_propagates_error(self):
        assert eval_expr(seq(ERR, mkdir("/a")), fs()) is ERROR
        assert eval_expr(seq(mkdir("/a"), ERR), fs()) is ERROR

    def test_seq_order(self):
        out = eval_expr(seq(mkdir("/a"), creat("/a/f", "x")), fs())
        assert out.file_content(Path.of("/a/f")) == "x"

    def test_if_then(self):
        e = ite(none_(Path.of("/a")), mkdir("/a"), ID)
        out = eval_expr(e, fs())
        assert out.is_dir(Path.of("/a"))

    def test_if_else(self):
        e = ite(none_(Path.of("/a")), mkdir("/a"), ID)
        state = fs({"/a": None})
        assert eval_expr(e, state) == state

    def test_id(self):
        assert eval_expr(ID, fs()) == fs()

    def test_paper_copy_delete(self):
        """Fig. 3d: copy src to dst then delete src; second run errors."""
        manifest = seq(cp("/src", "/dst"), rm("/src"))
        first = eval_expr(manifest, fs({"/src": "x"}))
        assert first.file_content(Path.of("/dst")) == "x"
        assert not first.exists(Path.of("/src"))
        assert eval_expr(manifest, first) is ERROR


class TestEmptyDirSubtlety:
    def test_paper_inequivalence_example(self):
        """if emptydir?(/a) id else err  vs  if dir?(/a) id else err
        differ exactly on states with a child inside /a (paper §4.2)."""
        p = Path.of("/a")
        e1 = ite(emptydir_(p), ID, ERR)
        e2 = ite(dir_(p), ID, ERR)
        witness = fs({"/a": None, "/a/child": "x"})
        assert eval_expr(e1, witness) is ERROR
        assert eval_expr(e2, witness) == witness
        boring = fs({"/a": None})
        assert eval_expr(e1, boring) == eval_expr(e2, boring)


class TestRootAndConstants:
    """The root directory always exists and can be neither created
    nor removed; the constant predicates ignore the state."""

    def test_mkdir_root_is_error(self):
        assert eval_expr(mkdir("/"), fs()) is ERROR

    def test_creat_root_is_error(self):
        assert eval_expr(creat("/", "x"), fs()) is ERROR

    def test_rm_root_is_error_even_when_empty(self):
        assert eval_pred(emptydir_(Path.of("/")), fs())
        assert eval_expr(rm("/"), fs()) is ERROR

    def test_parent_must_be_a_directory_not_a_file(self):
        state = fs({"/a": "x"})
        assert eval_expr(creat("/a/f", "y"), state) is ERROR
        assert eval_expr(mkdir("/a/d"), state) is ERROR

    def test_constant_predicates(self):
        for state in (fs(), fs({"/a": None, "/a/f": "x"})):
            assert eval_pred(TRUE, state) is True
            assert eval_pred(FALSE, state) is False
