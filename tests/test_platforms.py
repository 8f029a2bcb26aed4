"""Tests for multi-platform verification (§8 extension)."""

import pytest

from repro.core.platforms import (
    CENTOS,
    PLATFORMS,
    UBUNTU,
    verify_across_platforms,
)

PORTABLE = """
case $osfamily {
  'Debian': { $web = 'nginx' }
  'RedHat': { $web = 'httpd' }
  default:  { fail('unsupported') }
}
package{$web: ensure => present }
"""

DEBIAN_ONLY_FIX = """
package{'ntp': ensure => present }
if $osfamily == 'Debian' {
  file{'/etc/ntp.conf':
    content => 'server pool.example.org',
    require => Package['ntp'],
  }
} else {
  # BUG: the RedHat branch forgot the dependency.
  file{'/etc/ntp.conf': content => 'server pool.example.org' }
}
"""


class TestProfiles:
    def test_platforms_registered(self):
        assert set(PLATFORMS) == {"ubuntu", "centos"}

    def test_facts_differ(self):
        assert UBUNTU.facts["osfamily"] == "Debian"
        assert CENTOS.facts["osfamily"] == "RedHat"

    def test_centos_packages(self):
        db = CENTOS.package_db_factory()
        assert "/etc/httpd/conf/httpd.conf" in db.lookup("httpd").files

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            verify_across_platforms("package{'vim': }", platforms=["beos"])


class TestCrossPlatform:
    def test_portable_manifest_consistent(self):
        report = verify_across_platforms(PORTABLE)
        assert report.consistent
        assert report.all_ok
        assert report.divergences() == []

    def test_platform_specific_bug_detected(self):
        """Deterministic on Debian, non-deterministic on RedHat — the
        §8 scenario the paper says is worth checking."""
        report = verify_across_platforms(DEBIAN_ONLY_FIX)
        assert report.reports["ubuntu"].deterministic is True
        assert report.reports["centos"].deterministic is False
        assert not report.consistent
        assert len(report.divergences()) == 2

    def test_facts_select_different_packages(self):
        from repro.core.pipeline import Rehearsal

        ubuntu_tool = Rehearsal(
            context=UBUNTU.context(), facts=UBUNTU.facts
        )
        centos_tool = Rehearsal(
            context=CENTOS.context(), facts=CENTOS.facts
        )
        g1, _ = ubuntu_tool.compile(PORTABLE)
        g2, _ = centos_tool.compile(PORTABLE)
        assert "Package['nginx']" in g1.nodes
        assert "Package['httpd']" in g2.nodes

    def test_unsupported_platform_fail_captured(self):
        report = verify_across_platforms(
            PORTABLE, platforms=["ubuntu"]
        )
        assert report.reports["ubuntu"].error is None


class TestPlatformFlag:
    """``--platform`` accepts exactly the registered profiles; any
    other name is a bad invocation (exit 2), not a silent Ubuntu run."""

    def test_choices_are_the_registered_profiles(self):
        from repro.core.cli import PLATFORM_NAMES

        assert PLATFORM_NAMES == tuple(PLATFORMS)

    @pytest.mark.parametrize("command", ["verify", "verify-batch", "serve", "lint"])
    def test_unknown_platform_is_rejected_by_every_command(
        self, command, capsys
    ):
        from repro.core.cli import main
        from repro.corpus import manifest_dir

        manifest = str(manifest_dir() / "ntp-fixed.pp")
        argv = [command, "--platform", "nosuchos"]
        if command != "serve":
            argv.append(manifest)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "nosuchos" in err
        assert "'ubuntu'" in err and "'centos'" in err

    def test_known_platform_still_verifies(self, capsys):
        from repro.core.cli import main
        from repro.corpus import manifest_dir

        manifest = str(manifest_dir() / "ntp-fixed.pp")
        assert main(["verify", "--platform", "centos", manifest]) == 0
        assert "DETERMINISTIC" in capsys.readouterr().out
