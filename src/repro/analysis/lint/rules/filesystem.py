"""Filesystem-hygiene rules (REH009 missing-parent-dir, REH010
protected-write)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.audit import audit_writes
from repro.analysis.lint.diagnostics import Diagnostic, Severity
from repro.analysis.lint.engine import (
    LintContext,
    Rule,
    graph_checker,
    register_rule,
)
from repro.fs.paths import Path

register_rule(
    Rule(
        id="REH009",
        name="missing-parent-dir",
        severity=Severity.NOTE,
        summary="resource writes under a directory no resource manages",
        description=(
            "A resource writes a path whose parent directory is not "
            "created or ensured by any resource in the catalog. The "
            "write fails on hosts where the directory does not "
            "pre-exist; Puppet's file auto-require (Fig. 1 footnote) "
            "only helps when the parent is itself managed. Advisory: "
            "system directories like /etc routinely pre-exist."
        ),
    )
)

register_rule(
    Rule(
        id="REH010",
        name="protected-write",
        severity=Severity.WARNING,
        summary="resource writes inside a protected subtree",
        description=(
            "A resource's footprint writes (or ensures a directory) "
            "inside a subtree listed as protected (--protect). Reuses "
            "the §9 write-scope audit."
        ),
    )
)


@graph_checker
def missing_parent_dirs(ctx: LintContext) -> Iterable[Diagnostic]:
    if ctx.graph is None or not ctx.programs:
        return
    managed: Set[Path] = set()
    for fp in ctx.footprints.values():
        managed |= fp.writes | fp.dir_ensures
    seen: Set[Tuple[str, Path]] = set()
    for node in sorted(ctx.programs, key=str):
        fp = ctx.footprints[node]
        for path in sorted(fp.writes):
            parent = path.parent()
            if parent.is_root or parent in managed:
                continue
            key = (str(node), parent)
            if key in seen:
                continue
            seen.add(key)
            line, col = ctx.span_of(node)
            yield ctx.diag(
                "REH009",
                f"{node} writes {path} but no resource manages the "
                f"parent directory {parent}",
                line=line,
                col=col,
                resource=str(node),
                paths=(str(parent),),
            )


@graph_checker
def protected_writes(ctx: LintContext) -> Iterable[Diagnostic]:
    if not ctx.options.protected or not ctx.programs:
        return
    report = audit_writes(ctx.footprints, list(ctx.options.protected))
    for finding in report.findings:
        line, col = ctx.span_of(finding.resource)
        yield ctx.diag(
            "REH010",
            f"{finding.resource}: {finding.kind} of {finding.path} "
            f"inside a protected subtree",
            line=line,
            col=col,
            resource=str(finding.resource),
            paths=(str(finding.path),),
        )
