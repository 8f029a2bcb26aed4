"""One platform path (paper §8: "Rehearsal takes the platform name as a
command-line flag").

``ModelContext.for_platform`` resolves a name in ``PLATFORMS`` to the
platform's facts and package database, and every entry point —
``Rehearsal``, ``rehearsal verify``, ``verify-batch``, ``serve`` and
``lint`` — verifies through it.  So the flag decides the analysis: a
manifest whose fix is guarded by ``$osfamily == 'Debian'`` verifies on
Ubuntu and races on CentOS, and every front end says so.
"""

import json
import urllib.request

import pytest

from repro.analysis.determinism import DeterminismOptions
from repro.core.cli import main
from repro.core.pipeline import Rehearsal
from repro.errors import PackageNotFoundError
from repro.resources.compiler import PLATFORMS, ModelContext
from repro.service import BatchVerifier, normalized_row, verify_batch
from repro.service.daemon import DaemonConfig, RehearsalDaemon, daemon_in_thread

PORTABLE = """
case $osfamily {
  'Debian': { $web = 'nginx' }
  'RedHat': { $web = 'httpd' }
  default:  { fail('unsupported') }
}
package{$web: ensure => present }
"""

#: The ``$osfamily`` fixture: only the Debian branch orders the file
#: after the package that also ships it.
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

OPTIONS = DeterminismOptions(incremental=False)


def tool(platform: str) -> Rehearsal:
    return Rehearsal(
        context=ModelContext.for_platform(platform), options=OPTIONS
    )


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "osfamily-ntp.pp"
    path.write_text(DEBIAN_ONLY_FIX, encoding="utf8")
    return path


class TestProfiles:
    def test_platforms_registered(self):
        assert tuple(PLATFORMS) == ("ubuntu", "centos")

    def test_default_context_is_ubuntu(self):
        default, ubuntu = ModelContext(), ModelContext.for_platform("ubuntu")
        assert default.facts == ubuntu.facts
        assert default.package_semantics == ubuntu.package_semantics
        assert default.package_db.known() == ubuntu.package_db.known()
        for name in default.package_db.known():
            assert default.package_db.lookup(name) == ubuntu.package_db.lookup(
                name
            )

    def test_facts_differ(self):
        assert ModelContext.for_platform("ubuntu").facts["osfamily"] == "Debian"
        assert ModelContext.for_platform("centos").facts["osfamily"] == "RedHat"

    def test_centos_packages(self):
        db = ModelContext.for_platform("centos").package_db
        assert "/etc/httpd/conf/httpd.conf" in db.lookup("httpd").files
        assert "httpd" not in ModelContext.for_platform("ubuntu").package_db.known()

    def test_strict_packages(self):
        db = ModelContext.for_platform("centos", synthesize=False).package_db
        assert db.lookup("ntp").files[0] == "/usr/sbin/ntpd"
        with pytest.raises(PackageNotFoundError):
            db.lookup("nosuchpkg")

    def test_contexts_do_not_share_facts(self):
        context = ModelContext.for_platform("centos")
        context.facts["osfamily"] = "Gentoo"
        assert ModelContext.for_platform("centos").facts["osfamily"] == "RedHat"

    def test_unknown_platform(self):
        with pytest.raises(ValueError, match="'beos'.*ubuntu, centos"):
            ModelContext.for_platform("beos")


class TestUnknownPlatformAtConstruction:
    """An unknown name fails once, where it enters the program, not as
    one error row per manifest."""

    def test_batch_verifier(self):
        with pytest.raises(ValueError, match="'beos'.*ubuntu, centos"):
            BatchVerifier(platform="beos")

    def test_verify_batch(self, fixture_path):
        with pytest.raises(ValueError, match="'beos'"):
            verify_batch(fixture_path, platform="beos", use_cache=False)

    def test_daemon(self):
        with pytest.raises(ValueError, match="'beos'"):
            RehearsalDaemon(DaemonConfig(port=0, use_cache=False, platform="beos"))


class TestCrossPlatform:
    def test_portable_manifest_consistent(self):
        reports = [tool(p).verify(PORTABLE) for p in PLATFORMS]
        assert all(r.ok for r in reports)
        assert len({(r.deterministic, r.idempotent) for r in reports}) == 1

    def test_unsupported_platform_fail_captured(self):
        """Each platform's facts pick a case branch, so the default
        branch's ``fail()`` is never reached."""
        for platform in PLATFORMS:
            assert tool(platform).verify(PORTABLE).error is None

    def test_platform_specific_bug_detected(self):
        """Deterministic on Debian, non-deterministic on RedHat — the
        §8 scenario the paper says is worth checking."""
        assert tool("ubuntu").verify(DEBIAN_ONLY_FIX).deterministic is True
        assert tool("centos").verify(DEBIAN_ONLY_FIX).deterministic is False

    def test_facts_select_different_packages(self):
        g1, _ = tool("ubuntu").compile(PORTABLE)
        g2, _ = tool("centos").compile(PORTABLE)
        assert "Package['nginx']" in g1.nodes
        assert "Package['httpd']" in g2.nodes

    def test_package_listing_follows_platform(self):
        """The CentOS ntp listing has no ``/var/lib/ntp`` file, so the
        compiled package program differs, not only the facts."""
        source = "package{'ntp': ensure => present }"
        _, ubuntu = tool("ubuntu").compile(source)
        _, centos = tool("centos").compile(source)
        assert "/var/lib/ntp" in str(ubuntu["Package['ntp']"])
        assert "/var/lib/ntp" not in str(centos["Package['ntp']"])


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120.0) as response:
        return json.loads(response.read())


def batch_report(capsys, *argv) -> dict:
    """``verify-batch --json -`` as parsed JSON; the table precedes it."""
    assert main(["verify-batch", *map(str, argv), "--json", "-"]) == 0
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


def batch_rows(capsys, platform: str, manifest) -> list:
    report = batch_report(capsys, manifest, "--platform", platform, "--no-cache")
    return report["results"]


class TestPlatformFlag:
    """``--platform`` accepts exactly the registered platforms, and the
    one it names decides the verdict on every command."""

    @pytest.mark.parametrize("command", ["verify", "verify-batch", "serve", "lint"])
    def test_unknown_platform_is_rejected_by_every_command(
        self, command, capsys, fixture_path
    ):
        argv = [command, "--platform", "nosuchos"]
        if command != "serve":
            argv.append(str(fixture_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "nosuchos" in err
        assert "'ubuntu'" in err and "'centos'" in err

    def test_known_platform_still_verifies(self, capsys):
        from repro.corpus import manifest_dir

        manifest = str(manifest_dir() / "ntp-fixed.pp")
        assert main(["verify", "--platform", "centos", manifest]) == 0
        assert "DETERMINISTIC" in capsys.readouterr().out

    def test_verify_follows_the_flag(self, capsys, fixture_path):
        assert main(["verify", "--platform", "ubuntu", str(fixture_path)]) == 0
        out = capsys.readouterr().out
        assert "DETERMINISTIC" in out and "NON-DETERMINISTIC" not in out
        assert main(["verify", "--platform", "centos", str(fixture_path)]) == 1
        assert "NON-DETERMINISTIC" in capsys.readouterr().out

    def test_batch_rows_differ_between_platforms(self, capsys, fixture_path):
        ubuntu = batch_rows(capsys, "ubuntu", fixture_path)
        centos = batch_rows(capsys, "centos", fixture_path)
        assert [r["status"] for r in ubuntu] == ["ok"]
        assert [r["status"] for r in centos] == ["failed"]
        assert ubuntu[0]["deterministic"] is True
        assert centos[0]["deterministic"] is False
        assert ubuntu[0]["cache_key"] != centos[0]["cache_key"]

    def test_daemon_rows_equal_batch_rows_under_centos(self, capsys, fixture_path):
        expected = batch_rows(capsys, "centos", fixture_path)
        config = DaemonConfig(port=0, use_cache=False, platform="centos")
        with daemon_in_thread(config) as daemon:
            body = post(daemon.base_url + "/v1/verify", {"path": str(fixture_path)})
        assert normalized_row(body["row"]) == normalized_row(expected[0])
        assert body["row"]["deterministic"] is False

    def test_lint_runs_on_the_platform_catalog(self, capsys, fixture_path):
        """Only the CentOS catalog leaves the package and the file it
        ships unordered, so only it has the definite race."""

        def lint(platform: str) -> int:
            return main(
                ["lint", "--platform", platform, "--format", "json",
                 str(fixture_path)]
            )

        assert lint("ubuntu") == 0
        capsys.readouterr()
        assert lint("centos") == 2
        out = capsys.readouterr().out
        assert "REH005" in out and "/etc/ntp.conf" in out


class TestCachesAcrossPlatforms:
    """One cache directory and one store serve both platforms, and each
    run gets its own platform's verdict: ubuntu, centos, ubuntu."""

    def test_verdict_cache(self, capsys, tmp_path, fixture_path):
        cache_dir = tmp_path / "cache"
        runs = []
        for platform in ("ubuntu", "centos", "ubuntu"):
            report = batch_report(
                capsys, fixture_path, "--platform", platform,
                "--cache-dir", cache_dir,
            )
            runs.append(
                (report["results"][0]["status"], report["cache"]["hits"])
            )
        assert runs == [("ok", 0), ("failed", 0), ("ok", 1)]

    def test_cache_key_covers_the_platform_facts(self, monkeypatch):
        from repro.service import cache_key

        before = cache_key(DEBIAN_ONLY_FIX, platform="centos")
        facts, packages = PLATFORMS["centos"]
        monkeypatch.setitem(
            PLATFORMS, "centos", ({**facts, "operatingsystemrelease": "8"}, packages)
        )
        assert cache_key(DEBIAN_ONLY_FIX, platform="centos") != before

    def test_incremental_store(self, monkeypatch, capsys, tmp_path, fixture_path):
        from repro.service.incremental import IncrementalStore, reset_store_registry

        lookups = []
        get_json = IncrementalStore.get_json

        def spy(self, section, key):
            entry = get_json(self, section, key)
            lookups[-1].append((section, entry is not None))
            return entry

        monkeypatch.setattr(IncrementalStore, "get_json", spy)
        store_dir = tmp_path / "store"
        codes = []
        try:
            for platform in ("ubuntu", "centos", "ubuntu", "centos"):
                lookups.append([])
                codes.append(
                    main(
                        ["verify", "--platform", platform, "--incremental",
                         "--incremental-dir", str(store_dir), str(fixture_path)]
                    )
                )
        finally:
            reset_store_registry()
        capsys.readouterr()
        assert codes == [0, 1, 0, 1]
        # Elimination leaves Ubuntu's ordered pair nothing to explore,
        # so only its idempotence is stored; CentOS stores its race.
        # The first run on each platform misses; the repeat hits.
        assert lookups == [
            [("idem_full", False)],
            [("det_root", False)],
            [("idem_full", True)],
            [("det_root", True)],
        ]
