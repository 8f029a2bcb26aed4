"""The lint diagnostics model: severities, source-anchored findings,
and the per-manifest report.

Every finding carries a source span threaded all the way from the
lexer tokens (``puppet/lexer.py``) through the AST and the compiled
catalog onto :class:`repro.resources.base.Resource` — a diagnostic
points at the manifest line that declared the offending resource, not
just at the resource name.  Reports serialize to plain dicts (the
``--format json`` view and the per-manifest rows of ``verify-batch``)
and feed the SARIF backend (:mod:`repro.analysis.lint.sarif`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional, Tuple


class Severity(IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst.

    The CLI exit code is the contract consumers script against:
    0 — nothing worse than a note, 1 — warnings, 2 — errors.
    """

    NOTE = 1
    WARNING = 2
    ERROR = 3

    @property
    def sarif_level(self) -> str:
        return {
            Severity.NOTE: "note",
            Severity.WARNING: "warning",
            Severity.ERROR: "error",
        }[self]

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Related:
    """A secondary location attached to a diagnostic (the other half
    of a race pair, the first claimant of a duplicated path, ...)."""

    message: str
    line: int = 0
    col: int = 0

    def to_dict(self) -> dict:
        return {"message": self.message, "line": self.line, "col": self.col}


@dataclass
class Diagnostic:
    """One finding: a rule violation anchored at a source span."""

    rule_id: str  # stable, e.g. "REH005"
    rule_name: str  # slug, e.g. "definite-race"
    severity: Severity
    message: str
    file: str  # manifest path/name (the SARIF artifact uri)
    line: int = 0  # 1-based; 0 = no span available
    col: int = 0
    #: The primary resource the finding is about, e.g. "File['/x']".
    resource: Optional[str] = None
    related: Tuple[Related, ...] = ()
    #: Filesystem paths the finding concerns (contended paths for
    #: races, the duplicated path for duplicate claims, ...).
    paths: Tuple[str, ...] = ()

    def render(self) -> str:
        where = self.file
        if self.line:
            where += f":{self.line}"
            if self.col:
                where += f":{self.col}"
        return (
            f"{where}: {self.severity} {self.rule_id} "
            f"[{self.rule_name}] {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": str(self.severity),
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "resource": self.resource,
            "related": [r.to_dict() for r in self.related],
            "paths": list(self.paths),
        }


@dataclass
class RaceWitness:
    """The self-validation artifact of one definite-race finding: two
    complete topological orders and a concrete initial filesystem on
    which they diverge.  Kept in memory only (the fuzz harness replays
    it through the oracle); never serialized."""

    a: str
    b: str
    initial: object  # FileSystem
    order_a: List[object]
    order_b: List[object]
    outcome_a: object  # FileSystem or ERROR
    outcome_b: object

    @property
    def key(self) -> Tuple[str, str]:
        return tuple(sorted((self.a, self.b)))


@dataclass
class LintStats:
    """Instrumentation for one lint run — notably the evidence that
    the analysis stayed SAT-free (``sat_queries`` has no counter here
    because there is nothing to count)."""

    resources: int = 0
    #: Unordered resource pairs whose footprints conflict (the race
    #: candidates) and how many were concretely confirmed.
    race_candidates: int = 0
    races_confirmed: int = 0
    #: Concrete evaluations spent confirming candidates.
    confirm_evaluations: int = 0
    #: True when the confirmation budget ran dry (remaining candidates
    #: degrade to possible-race warnings, never to definite errors).
    confirm_budget_exhausted: bool = False
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "resources": self.resources,
            "race_candidates": self.race_candidates,
            "races_confirmed": self.races_confirmed,
            "confirm_evaluations": self.confirm_evaluations,
            "confirm_budget_exhausted": self.confirm_budget_exhausted,
            "seconds": self.seconds,
        }


@dataclass
class LintReport:
    """Everything one lint run found for one manifest."""

    name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    stats: LintStats = field(default_factory=LintStats)
    #: In-memory only: witnesses backing the definite-race findings.
    race_witnesses: List[RaceWitness] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    # -- aggregate views ---------------------------------------------------

    @property
    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def clean(self) -> bool:
        """No warnings or errors (notes are advisory and do not dirty
        a manifest — the exit-code contract)."""
        sev = self.max_severity
        return sev is None or sev == Severity.NOTE

    @property
    def exit_code(self) -> int:
        """0 — clean (at most notes); 1 — warnings; 2 — errors."""
        sev = self.max_severity
        if sev is None or sev == Severity.NOTE:
            return 0
        return 1 if sev == Severity.WARNING else 2

    def definite_race_pairs(self) -> List[Tuple[str, str]]:
        return sorted({w.key for w in self.race_witnesses})

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        lines = [d.render() for d in sorted(
            self.diagnostics,
            key=lambda d: (d.line, d.col, d.rule_id, d.message),
        )]
        counts = ", ".join(
            f"{self.count(sev)} {sev}{'s' if self.count(sev) != 1 else ''}"
            for sev in (Severity.ERROR, Severity.WARNING, Severity.NOTE)
            if self.count(sev)
        )
        lines.append(
            f"{self.name}: {counts or 'clean'} "
            f"[{self.stats.resources} resources, "
            f"{self.stats.race_candidates} race candidate"
            + ("" if self.stats.race_candidates == 1 else "s")
            + f", {self.stats.confirm_evaluations} concrete evaluations, "
            "0 SAT queries]"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "clean": self.clean,
            "exit_code": self.exit_code,
            "counts": {
                "error": self.count(Severity.ERROR),
                "warning": self.count(Severity.WARNING),
                "note": self.count(Severity.NOTE),
            },
            "diagnostics": [
                d.to_dict()
                for d in sorted(
                    self.diagnostics,
                    key=lambda d: (d.line, d.col, d.rule_id, d.message),
                )
            ],
            "stats": self.stats.to_dict(),
        }
