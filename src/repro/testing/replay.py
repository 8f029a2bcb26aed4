"""Replay one committed fuzz reproducer through the differential
pipeline.

``rehearsal fuzz --replay <reproducer.pp>`` re-runs a single
reproducer exactly the way ``tests/test_regressions.py`` replays the
whole corpus: parse the machine-readable header, push the
manifest through :func:`repro.testing.differential.run_source`, and
check that

* the pipeline and the concrete oracle still **agree** (the
  disagreement the file was minted for must stay fixed), and
* the **pinned verdicts** from the header still hold
  (``expected-deterministic``, and ``expected-idempotent`` unless
  ``none``).

The oracle seed defaults to the header's ``seed`` but can be varied
per call, so each replay samples a different slice of the oracle's
initial-state space — the regression test replays every reproducer
under seeds 0–8 as well as its header seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.testing.differential import CaseOutcome, run_source
from repro.testing.regressions import (
    RegressionFormatError,
    RegressionHeader,
    parse_header,
)


@dataclass
class ReplayResult:
    """One reproducer replay: the differential outcome plus the
    pinned-verdict checks."""

    path: str
    header: Optional[RegressionHeader] = None
    outcome: Optional[CaseOutcome] = None
    oracle_seed: Optional[int] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "ok": self.ok,
            "oracle_seed": self.oracle_seed,
            "problems": list(self.problems),
            "outcome": (
                self.outcome.to_dict()
                if self.outcome is not None
                else None
            ),
        }


def replay_file(
    path,
    oracle_seed: Optional[int] = None,
    name: Optional[str] = None,
) -> ReplayResult:
    """Replay the reproducer at ``path``; never raises on a bad file —
    header/IO problems land in ``result.problems`` so callers can
    report them as failed replays with a reason."""
    path = Path(path)
    display = name or path.name
    result = ReplayResult(path=str(path))
    try:
        text = path.read_text(encoding="utf8")
    except (OSError, UnicodeDecodeError) as exc:
        result.problems.append(f"cannot read {display}: {exc}")
        return result
    try:
        header = parse_header(text, display)
    except RegressionFormatError as exc:
        result.problems.append(str(exc))
        return result
    result.header = header
    seed = header.seed if oracle_seed is None else oracle_seed
    result.oracle_seed = seed
    outcome = run_source(text, name=display, oracle_seed=seed)
    result.outcome = outcome
    if not outcome.agreed:
        result.problems.append(
            f"disagreement is back: {','.join(outcome.kinds())}"
        )
    if outcome.pipeline_deterministic != header.expected_deterministic:
        result.problems.append(
            "pinned determinism verdict changed: expected "
            f"{header.expected_deterministic}, pipeline says "
            f"{outcome.pipeline_deterministic}"
        )
    if (
        header.expected_idempotent is not None
        and outcome.pipeline_idempotent != header.expected_idempotent
    ):
        result.problems.append(
            "pinned idempotence verdict changed: expected "
            f"{header.expected_idempotent}, pipeline says "
            f"{outcome.pipeline_idempotent}"
        )
    return result
