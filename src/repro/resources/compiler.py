"""The resource compiler ``C : R → e`` (§3.3).

Dispatches a primitive :class:`~repro.resources.base.Resource` to its
type-specific FS model.  New resource types plug in via
:meth:`ResourceCompiler.register` without touching the analyses — the
rest of the toolchain only ever sees FS programs (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ResourceModelError
from repro.fs import Expr
from repro.resources.base import Resource
from repro.resources.cron import compile_cron
from repro.resources.file import compile_file
from repro.resources.group import compile_group
from repro.resources.host import compile_host
from repro.resources.misc import compile_anchor, compile_exec, compile_notify
from repro.resources.package import compile_package
from repro.resources.package_db import (
    CENTOS_PACKAGES,
    PackageDatabase,
    PackageInfo,
    default_database,
)
from repro.resources.service import compile_service
from repro.resources.ssh_authorized_key import compile_ssh_authorized_key
from repro.resources.user import compile_user

ModelFn = Callable[[Resource, "ModelContext"], Expr]

#: The platforms ``--platform`` names: each one's OS facts, which the
#: evaluator exposes as top-scope variables (``$osfamily``), and the
#: package listings it lays over the curated (Ubuntu) table.
PLATFORMS: Dict[str, Tuple[Dict[str, object], Dict[str, PackageInfo]]] = {
    "ubuntu": (
        {
            "operatingsystem": "Ubuntu",
            "osfamily": "Debian",
            "operatingsystemrelease": "14.04",
            "lsbdistcodename": "trusty",
        },
        {},
    ),
    "centos": (
        {
            "operatingsystem": "CentOS",
            "osfamily": "RedHat",
            "operatingsystemrelease": "7.2",
            "lsbdistcodename": "core",
        },
        CENTOS_PACKAGES,
    ),
}


@dataclass
class ModelContext:
    """Ambient information the evaluator and resource models need.

    ``facts`` are the platform facts the manifest sees and
    ``package_db`` resolves package listings;
    :meth:`for_platform` builds both from :data:`PLATFORMS`, and the
    default is Ubuntu's.

    ``package_semantics`` selects when installed-state checks happen:
    ``"direct"`` (default) checks at each resource's execution time;
    ``"snapshot"`` mirrors Puppet's real behaviour of querying the
    package manager once at the start of a run (see
    :mod:`repro.resources.snapshot`) — required to reproduce the
    Fig. 3c non-idempotence.
    """

    package_db: PackageDatabase = field(default_factory=default_database)
    package_semantics: str = "direct"
    facts: Dict[str, object] = field(
        default_factory=lambda: dict(PLATFORMS["ubuntu"][0])
    )

    @classmethod
    def for_platform(cls, name: str, synthesize: bool = True) -> "ModelContext":
        """The context a platform name selects.  ``synthesize=False``
        makes unknown packages an error (``--strict-packages``)."""
        if name not in PLATFORMS:
            raise ValueError(
                f"unknown platform {name!r}; known platforms: "
                + ", ".join(PLATFORMS)
            )
        facts, packages = PLATFORMS[name]
        return cls(
            package_db=PackageDatabase(extra=packages, synthesize=synthesize),
            facts=dict(facts),
        )


_BUILTIN_MODELS: Dict[str, ModelFn] = {
    "file": compile_file,
    "package": compile_package,
    "user": compile_user,
    "group": compile_group,
    "service": compile_service,
    "ssh_authorized_key": compile_ssh_authorized_key,
    "cron": compile_cron,
    "host": compile_host,
    "notify": compile_notify,
    "anchor": compile_anchor,
    "exec": compile_exec,
}


class ResourceCompiler:
    """Compiles primitive resources to FS expressions."""

    def __init__(self, context: Optional[ModelContext] = None):
        self.context = context or ModelContext()
        self._models: Dict[str, ModelFn] = dict(_BUILTIN_MODELS)

    def register(self, rtype: str, model: ModelFn) -> None:
        """Install or override the model for a resource type."""
        self._models[rtype.lower()] = model

    def supported_types(self) -> list[str]:
        return sorted(self._models)

    def compile(self, resource: Resource) -> Expr:
        model = self._models.get(resource.rtype)
        if model is None:
            raise ResourceModelError(
                f"{resource.ref}: no FS model for resource type "
                f"{resource.rtype!r}; supported types are "
                f"{', '.join(self.supported_types())}"
            )
        return model(resource, self.context)


def compile_resource(
    resource: Resource, context: Optional[ModelContext] = None
) -> Expr:
    """One-shot convenience wrapper around :class:`ResourceCompiler`."""
    return ResourceCompiler(context).compile(resource)
