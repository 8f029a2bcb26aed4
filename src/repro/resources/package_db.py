"""Offline package database.

The paper's Rehearsal queries a web service wrapping ``apt-file`` /
``repoquery`` for per-package file listings (§6) and caches the results.
This module is the offline substitute (see DESIGN.md): a curated table
of listings for every package the benchmarks and examples use, plus a
deterministic synthetic generator for unknown names so arbitrary
manifests remain analyzable.

Beyond file listings, entries carry ``depends`` edges.  Installing a
package installs its dependency closure and removing one removes its
reverse-dependency closure — the apt behaviour behind the paper's
Perl/Go silent-failure example (Fig. 3c).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import PackageNotFoundError
from repro.fs.paths import Path


@dataclass(frozen=True)
class PackageInfo:
    """One package: its regular files and its direct dependencies."""

    name: str
    files: tuple[str, ...]
    depends: tuple[str, ...] = ()

    def file_paths(self) -> List[Path]:
        return [Path.of(f) for f in self.files]


def _pkg(name: str, files: Sequence[str], depends: Sequence[str] = ()) -> PackageInfo:
    return PackageInfo(name, tuple(files), tuple(depends))


def _std_files(name: str, extra: Sequence[str] = ()) -> List[str]:
    """The typical layout shared by most server packages."""
    return [
        f"/usr/bin/{name}",
        f"/usr/share/doc/{name}/copyright",
        f"/usr/share/doc/{name}/changelog",
        *extra,
    ]


_CURATED: Dict[str, PackageInfo] = {}


def _register(info: PackageInfo) -> None:
    _CURATED[info.name] = info


# -- toolchains (Fig. 3b) ----------------------------------------------------

_register(_pkg("m4", _std_files("m4")))
_register(_pkg("make", _std_files("make", ["/usr/include/gnumake.h"])))
_register(
    _pkg(
        "gcc",
        _std_files(
            "gcc",
            ["/usr/bin/cc", "/usr/lib/gcc/specs", "/usr/include/stdc-predef.h"],
        ),
    )
)
_register(
    _pkg("ocaml", _std_files("ocaml", ["/usr/bin/ocamlc", "/usr/lib/ocaml/stdlib.cma"]))
)

# -- the Perl/Go pair (Fig. 3c): golang-go depends on perl on Ubuntu 14.04 ----

_register(
    _pkg(
        "perl",
        _std_files("perl", ["/usr/share/perl/Config.pm", "/usr/lib/perl/auto.ix"]),
    )
)
_register(
    _pkg(
        "golang-go",
        _std_files("golang-go", ["/usr/bin/go", "/usr/lib/go/pkg/runtime.a"]),
        depends=("perl",),
    )
)

# -- benchmark services -------------------------------------------------------

_register(
    _pkg(
        "apache2",
        [
            "/usr/sbin/apache2",
            "/usr/sbin/apachectl",
            "/etc/apache2/apache2.conf",
            "/etc/apache2/ports.conf",
            "/etc/apache2/envvars",
            "/etc/apache2/sites-available/000-default.conf",
            "/etc/apache2/mods-available/mpm_event.conf",
            "/etc/apache2/mods-available/ssl.conf",
            "/etc/apache2/conf-available/charset.conf",
            "/usr/share/doc/apache2/copyright",
            "/var/www/html/index.html",
        ],
    )
)
_register(
    _pkg(
        "nginx",
        [
            "/usr/sbin/nginx",
            "/etc/nginx/nginx.conf",
            "/etc/nginx/mime.types",
            "/etc/nginx/fastcgi_params",
            "/etc/nginx/sites-available/default",
            "/etc/nginx/conf.d/placeholder.conf",
            "/usr/share/doc/nginx/copyright",
            "/var/www/html/index.nginx-debian.html",
        ],
    )
)
_register(
    _pkg(
        "bind9",
        [
            "/usr/sbin/named",
            "/usr/bin/rndc",
            "/etc/bind/named.conf",
            "/etc/bind/named.conf.options",
            "/etc/bind/named.conf.local",
            "/etc/bind/db.root",
            "/etc/bind/db.local",
            "/usr/share/doc/bind9/copyright",
        ],
    )
)
_register(
    _pkg(
        "ntp",
        [
            "/usr/sbin/ntpd",
            "/usr/bin/ntpq",
            "/etc/ntp.conf",
            "/usr/share/doc/ntp/copyright",
            "/var/lib/ntp/ntp.conf.dhcp",
        ],
    )
)
_register(
    _pkg(
        "rsyslog",
        [
            "/usr/sbin/rsyslogd",
            "/etc/rsyslog.conf",
            "/etc/rsyslog.d/50-default.conf",
            "/usr/share/doc/rsyslog/copyright",
        ],
    )
)
_register(
    _pkg(
        "xinetd",
        [
            "/usr/sbin/xinetd",
            "/etc/xinetd.conf",
            "/etc/xinetd.d/echo",
            "/etc/xinetd.d/daytime",
            "/usr/share/doc/xinetd/copyright",
        ],
    )
)
_register(
    _pkg(
        "monit",
        [
            "/usr/bin/monit",
            "/etc/monit/monitrc",
            "/etc/monit/conf.d/placeholder",
            "/usr/share/doc/monit/copyright",
        ],
    )
)
_register(
    _pkg(
        "amavisd-new",
        [
            "/usr/sbin/amavisd-new",
            "/etc/amavis/conf.d/05-node_id",
            "/etc/amavis/conf.d/15-content_filter_mode",
            "/etc/amavis/conf.d/50-user",
            "/usr/share/doc/amavisd-new/copyright",
        ],
        depends=("perl",),
    )
)
_register(
    _pkg(
        "clamav",
        [
            "/usr/bin/clamscan",
            "/usr/bin/freshclam",
            "/etc/clamav/clamd.conf",
            "/etc/clamav/freshclam.conf",
            "/usr/share/doc/clamav/copyright",
        ],
    )
)
_register(
    _pkg(
        "clamav-daemon",
        [
            "/usr/sbin/clamd",
            "/etc/clamav/onaccess.conf",
            "/usr/share/doc/clamav-daemon/copyright",
        ],
        depends=("clamav",),
    )
)
_register(
    _pkg(
        "logstash",
        [
            "/usr/share/logstash/bin/logstash",
            "/etc/logstash/logstash.yml",
            "/etc/logstash/jvm.options",
            "/etc/logstash/conf.d/placeholder.conf",
            "/usr/share/doc/logstash/copyright",
        ],
        depends=("openjdk-8-jre-headless",),
    )
)
_register(
    _pkg(
        "openjdk-8-jre-headless",
        [
            "/usr/bin/java",
            "/usr/lib/jvm/java-8-openjdk/lib/rt.jar",
            "/usr/share/doc/openjdk-8-jre-headless/copyright",
        ],
    )
)
_register(
    _pkg(
        "ngircd",
        [
            "/usr/sbin/ngircd",
            "/etc/ngircd/ngircd.conf",
            "/usr/share/doc/ngircd/copyright",
        ],
    )
)
_register(
    _pkg(
        "dnsmasq",
        [
            "/usr/sbin/dnsmasq",
            "/etc/dnsmasq.conf",
            "/etc/dnsmasq.d/README",
            "/usr/share/doc/dnsmasq/copyright",
        ],
    )
)
_register(
    _pkg(
        "mysql-server",
        [
            "/usr/sbin/mysqld",
            "/usr/bin/mysql",
            "/etc/mysql/my.cnf",
            "/etc/mysql/conf.d/mysqld_safe_syslog.cnf",
            "/usr/share/doc/mysql-server/copyright",
        ],
    )
)
_register(
    _pkg(
        "php5-fpm",
        [
            "/usr/sbin/php5-fpm",
            "/etc/php5/fpm/php.ini",
            "/etc/php5/fpm/pool.d/www.conf",
            "/usr/share/doc/php5-fpm/copyright",
        ],
    )
)
_register(
    _pkg(
        "tomcat7",
        [
            "/usr/share/tomcat7/bin/catalina.sh",
            "/etc/tomcat7/server.xml",
            "/etc/tomcat7/tomcat-users.xml",
            "/etc/default/tomcat7",
            "/usr/share/doc/tomcat7/copyright",
        ],
        depends=("openjdk-8-jre-headless",),
    )
)
_register(
    _pkg(
        "postgresql",
        [
            "/usr/lib/postgresql/bin/postgres",
            "/etc/postgresql/postgresql.conf",
            "/etc/postgresql/pg_hba.conf",
            "/usr/share/doc/postgresql/copyright",
        ],
    )
)
_register(_pkg("vim", _std_files("vim", ["/usr/share/vim/vimrc"])))
_register(_pkg("git", _std_files("git", ["/usr/lib/git-core/git-remote-http"])))
_register(_pkg("curl", _std_files("curl")))
_register(_pkg("wget", _std_files("wget", ["/etc/wgetrc"])))
_register(_pkg("openssh-server", [
    "/usr/sbin/sshd",
    "/etc/ssh/sshd_config",
    "/etc/ssh/moduli",
    "/usr/share/doc/openssh-server/copyright",
]))


#: The CentOS platform's listings, laid over the curated table:
#: the same services under RPM names and Red Hat paths.
CENTOS_PACKAGES: Dict[str, PackageInfo] = {
    info.name: info
    for info in (
        _pkg("httpd", [
            "/usr/sbin/httpd",
            "/etc/httpd/conf/httpd.conf",
            "/etc/httpd/conf.d/welcome.conf",
            "/var/www/html/index.html",
            "/usr/share/doc/httpd/copyright",
        ]),
        _pkg("ntp", [
            "/usr/sbin/ntpd",
            "/etc/ntp.conf",
            "/usr/share/doc/ntp/copyright",
        ]),
        _pkg("bind", [
            "/usr/sbin/named",
            "/etc/named.conf",
            "/var/named/named.ca",
            "/usr/share/doc/bind/copyright",
        ]),
        _pkg("rsyslog", [
            "/usr/sbin/rsyslogd",
            "/etc/rsyslog.conf",
            "/etc/rsyslog.d/listen.conf",
            "/usr/share/doc/rsyslog/copyright",
        ]),
        _pkg("xinetd", [
            "/usr/sbin/xinetd",
            "/etc/xinetd.conf",
            "/etc/xinetd.d/chargen-dgram",
            "/usr/share/doc/xinetd/copyright",
        ]),
        _pkg("nginx", [
            "/usr/sbin/nginx",
            "/etc/nginx/nginx.conf",
            "/etc/nginx/conf.d/default.conf",
            "/usr/share/doc/nginx/copyright",
        ]),
    )
}


MARKER_ROOT = Path.of("/var/lib/pkg")
"""Installed-state markers live here: one file per installed package."""


class PackageDatabase:
    """Resolves package names to :class:`PackageInfo`.

    ``synthesize`` controls what happens for unknown names: generate a
    deterministic synthetic listing (default) or raise
    :class:`PackageNotFoundError` — the strict mode mirrors the paper's
    web service failing on packages absent from the distribution.
    """

    def __init__(
        self,
        extra: Optional[Dict[str, PackageInfo]] = None,
        synthesize: bool = True,
        synthetic_file_count: int = 6,
    ):
        self._table: Dict[str, PackageInfo] = dict(_CURATED)
        if extra:
            self._table.update(extra)
        self._synthesize = synthesize
        self._synthetic_file_count = synthetic_file_count

    def lookup(self, name: str) -> PackageInfo:
        info = self._table.get(name)
        if info is not None:
            return info
        if not self._synthesize:
            raise PackageNotFoundError(
                f"package {name!r} is not in the database "
                "(synthesis disabled)"
            )
        info = synthetic_package(name, self._synthetic_file_count)
        self._table[name] = info
        return info

    def register(self, info: PackageInfo) -> None:
        self._table[info.name] = info

    def known(self) -> List[str]:
        return sorted(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table or self._synthesize

    # -- dependency closures ----------------------------------------------

    def install_closure(self, name: str) -> List[PackageInfo]:
        """The package and its transitive dependencies, dependencies
        first (install order)."""
        out: List[PackageInfo] = []
        seen: set[str] = set()

        def visit(pkg_name: str) -> None:
            if pkg_name in seen:
                return
            seen.add(pkg_name)
            info = self.lookup(pkg_name)
            for dep in info.depends:
                visit(dep)
            out.append(info)

        visit(name)
        return out

    def reverse_dependents(self, name: str) -> List[PackageInfo]:
        """Known packages that transitively depend on ``name``
        (dependents first — removal order)."""
        direct: Dict[str, set[str]] = {}
        for info in self._table.values():
            for dep in info.depends:
                direct.setdefault(dep, set()).add(info.name)
        out: List[str] = []
        seen: set[str] = set()

        def visit(pkg_name: str) -> None:
            for dependent in sorted(direct.get(pkg_name, ())):
                if dependent not in seen:
                    seen.add(dependent)
                    visit(dependent)
                    out.append(dependent)

        visit(name)
        out.reverse()
        return [self.lookup(n) for n in out]


def synthetic_package(name: str, file_count: int = 6) -> PackageInfo:
    """Deterministic synthetic listing for an unknown package.

    The layout mimics a typical Debian package (binary, docs, config)
    with name-seeded variation so distinct packages get distinct but
    reproducible footprints.
    """
    digest = hashlib.sha256(name.encode("utf8")).hexdigest()
    files = [
        f"/usr/bin/{name}",
        f"/usr/share/doc/{name}/copyright",
        f"/etc/{name}/{name}.conf",
    ]
    for i in range(max(0, file_count - len(files))):
        files.append(f"/usr/lib/{name}/lib{digest[:6]}-{i}.so")
    return PackageInfo(name, tuple(files))


def default_database() -> PackageDatabase:
    return PackageDatabase()
