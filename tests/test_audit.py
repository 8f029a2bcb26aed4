"""Tests for the static audit tooling (§9 extension)."""

import pytest

from repro.analysis.audit import audit_writes, prove_never_deleted
from repro.analysis.commutativity import footprint
from repro.digraph import DiGraph
from repro.fs import Path, creat, mkdir, rm, seq, ite, file_, ID
from repro.resources import Resource, ResourceCompiler


@pytest.fixture(scope="module")
def compiler():
    return ResourceCompiler()


def footprints(programs):
    return {node: footprint(expr) for node, expr in programs.items()}


class TestWriteAudit:
    def test_clean_manifest(self, compiler):
        programs = {
            "f": compiler.compile(
                Resource("file", "/srv/app.conf", {"content": "x"})
            )
        }
        report = audit_writes(footprints(programs), [Path.of("/etc")])
        assert report.clean
        assert "clean" in report.render()

    def test_write_into_protected_tree_flagged(self, compiler):
        programs = {
            "f": compiler.compile(
                Resource("file", "/etc/shadow", {"content": "boom"})
            )
        }
        report = audit_writes(footprints(programs), [Path.of("/etc")])
        assert not report.clean
        finding = report.findings[0]
        assert finding.resource == "f"
        assert str(finding.path) == "/etc/shadow"
        assert "write /etc/shadow" in report.render()

    def test_allowlist(self, compiler):
        programs = {
            "f": compiler.compile(
                Resource("file", "/etc/motd", {"content": "hi"})
            )
        }
        report = audit_writes(
            footprints(programs), [Path.of("/etc")], allow=["f"]
        )
        assert report.clean

    def test_package_flagged_only_for_protected_paths(self, compiler):
        programs = {
            "pkg": compiler.compile(Resource("package", "vim", {}))
        }
        report = audit_writes(
            footprints(programs), [Path.of("/usr/share/vim")]
        )
        paths = {str(f.path) for f in report.findings}
        assert "/usr/share/vim/vimrc" in paths
        assert all(p.startswith("/usr/share/vim") for p in paths)

    def test_multiple_resources(self, compiler):
        programs = {
            "good": compiler.compile(
                Resource("file", "/srv/x", {"content": "a"})
            ),
            "bad1": compiler.compile(
                Resource("file", "/boot/grub.cfg", {"content": "b"})
            ),
            "bad2": compiler.compile(
                Resource("file", "/boot/initrd", {"ensure": "absent"})
            ),
        }
        report = audit_writes(footprints(programs), [Path.of("/boot")])
        assert set(report.by_resource()) == {"bad1", "bad2"}


class TestNeverDeleted:
    def _graph(self, programs, edges=()):
        g = DiGraph()
        g.add_nodes_from(programs)
        g.add_edges_from(edges)
        return g

    def test_holds_for_untouched_path(self):
        programs = {"a": creat("/other", "x")}
        g = self._graph(programs)
        holds, _ = prove_never_deleted(g, programs, Path.of("/precious"))
        assert holds

    def test_violated_by_rm(self):
        p = Path.of("/precious")
        programs = {"a": ite(file_(p), rm(p), ID)}
        g = self._graph(programs)
        holds, witness = prove_never_deleted(g, programs, p)
        assert not holds
        assert witness is not None
        assert witness.is_file(p)

    def test_holds_for_overwrite(self):
        """Replacing content keeps the path existing."""
        p = Path.of("/precious")
        programs = {"a": ite(file_(p), seq(rm(p), creat(p, "new")), ID)}
        g = self._graph(programs)
        holds, _ = prove_never_deleted(g, programs, p)
        assert holds

    def test_fig3d_deletes_source(self):
        from repro.resources import Resource, ResourceCompiler

        compiler = ResourceCompiler()
        programs = {
            "copy": compiler.compile(
                Resource("file", "/dst", {"source": "/src"})
            ),
            "del": compiler.compile(
                Resource("file", "/src", {"ensure": "absent"})
            ),
        }
        g = self._graph(programs, edges=[("copy", "del")])
        holds, _ = prove_never_deleted(g, programs, Path.of("/src"))
        assert not holds
