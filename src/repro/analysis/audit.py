"""Static security/ownership auditing (the paper's §9: "we believe our
approach to modeling Puppet will enable several other tools, e.g. ...
security auditing").

The write-scope audit reports which resources may write inside
protected subtrees (footprint-based, §4.3 machinery reused).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence

from repro.analysis.commutativity import Footprint
from repro.fs.paths import Path

NodeId = Hashable


@dataclass
class WriteFinding:
    resource: NodeId
    path: Path
    kind: str  # "write" | "dir-ensure"


@dataclass
class AuditReport:
    findings: List[WriteFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_resource(self) -> Dict[NodeId, List[WriteFinding]]:
        out: Dict[NodeId, List[WriteFinding]] = {}
        for f in self.findings:
            out.setdefault(f.resource, []).append(f)
        return out

    def render(self) -> str:
        if self.clean:
            return "audit clean: no writes into protected subtrees"
        lines = ["protected-subtree writes:"]
        for node, findings in sorted(
            self.by_resource().items(), key=lambda kv: str(kv[0])
        ):
            for f in findings:
                lines.append(f"  {node}: {f.kind} {f.path}")
        return "\n".join(lines)


def audit_writes(
    prints: Mapping[NodeId, Footprint],
    protected: Sequence[Path],
    allow: Sequence[NodeId] = (),
) -> AuditReport:
    """Report every resource whose footprint (``prints``, node →
    footprint of its program) writes or ensures a directory inside a
    protected subtree; ``allow`` lists resources exempted by policy."""
    allowed = set(allow)
    report = AuditReport()
    for node, fp in prints.items():
        if node in allowed:
            continue
        for path in sorted(fp.writes):
            if _under_any(path, protected):
                report.findings.append(WriteFinding(node, path, "write"))
        for path in sorted(fp.dir_ensures):
            if _under_any(path, protected) and path not in protected:
                report.findings.append(
                    WriteFinding(node, path, "dir-ensure")
                )
    return report


def _under_any(path: Path, roots: Sequence[Path]) -> bool:
    return any(r == path or r.is_ancestor_of(path) for r in roots)

