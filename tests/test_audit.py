"""Tests for the static audit tooling (§9 extension)."""

import pytest

from repro.analysis.audit import audit_writes
from repro.analysis.commutativity import footprint
from repro.fs import Path
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

