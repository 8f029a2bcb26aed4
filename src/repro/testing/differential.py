"""The differential driver: symbolic pipeline vs. concrete oracle.

``run_source`` pushes one manifest through the *real* production
pipeline (:class:`repro.core.pipeline.Rehearsal` — memoized DAG
exploration, incremental SAT, witness-replay race localization) and
through the concrete interleaving oracle
(:mod:`repro.testing.oracle`), then classifies every observable
disagreement:

``missed_nondet``
    the pipeline said deterministic but the oracle exhibits two
    concrete orders diverging from a concrete initial state — a
    soundness bug in the symbolic stack (the class a sabotaged
    exploration memo produces);
``false_nondet``
    the pipeline said non-deterministic but its own witness replays
    identically under both witness orders *and* the oracle finds no
    divergence even starting from the witness state;
``witness_invalid``
    the verdict agrees but the claimed witness does not concretely
    reproduce the divergence;
``missed_nonidempotence`` / ``idempotence_witness_invalid``
    the same two classes for the idempotence check;
``race_pair_mismatch`` / ``race_path_mismatch``
    localization named a resource pair (or contended path) that does
    not concretely race on the witness while truly racing pairs exist;
``pipeline_error``
    the pipeline failed outright on a generated (well-formed) case.

With ``lint=True`` the same case also runs through the static
analyzer's graph-stage rules (:func:`repro.analysis.lint.lint_graph`)
and its verdict is cross-examined against the oracle:

``lint_false_race``
    lint reported a *definite* race (REH005 — which by construction
    carries a concrete two-order divergence witness) but the oracle,
    fed that very witness state, finds the case deterministic — a
    lint soundness bug, failing;
``lint missed definite races``
    the oracle exhibits a divergence lint did not flag as REH005 —
    expected (lint's confirmation budget is bounded), *counted* in the
    summary but never a failure.

Budget blow-ups and oracle abstentions are *skips*, never
disagreements.  ``FuzzSession`` drives a whole seeded run: a
deterministic case quota derived from the time budget, differential
checks, optional shrinking, and a byte-reproducible JSON summary.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.analysis.determinism import DeterminismOptions
from repro.core.pipeline import Rehearsal
from repro.digraph import topological_sort
from repro.fs.semantics import ERROR, eval_expr
from repro.resources.compiler import ModelContext
from repro.testing.generate import (
    GENERATOR_VERSION,
    CaseGenerator,
    GeneratedCase,
)
from repro.testing.oracle import run_oracle

#: A time budget buys a *deterministic* case quota at this rate; the
#: wall clock is only a safety stop (summaries are marked
#: ``truncated`` if it ever fires), so equal seeds and budgets yield
#: byte-identical summaries on any machine fast enough to finish.
CASES_PER_SECOND = 5


@dataclass
class Disagreement:
    kind: str
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass
class CaseOutcome:
    """Both verdicts for one case plus the classified disagreements."""

    name: str
    pipeline_deterministic: Optional[bool] = None
    pipeline_idempotent: Optional[bool] = None
    pipeline_error: Optional[str] = None
    race_pair: Optional[Tuple[str, str]] = None
    race_path: Optional[str] = None
    oracle_deterministic: Optional[bool] = None
    oracle_idempotent: Optional[bool] = None
    oracle_skipped: bool = False
    oracle_skip_reason: Optional[str] = None
    oracle_racing: List[Tuple[str, str]] = field(default_factory=list)
    disagreements: List[Disagreement] = field(default_factory=list)
    #: Set when the case also ran through the static analyzer
    #: (``run_source(..., lint=True)``).
    lint_ran: bool = False
    #: Pairs lint confirmed as definite races (REH005).
    lint_definite_pairs: List[Tuple[str, str]] = field(
        default_factory=list
    )
    #: Race candidates lint saw (footprint conflicts, REH005+REH006).
    lint_candidates: int = 0
    #: Oracle found a divergence lint did not flag REH005 — counted,
    #: never failing (lint's confirmation budget is bounded).
    lint_missed_definite_race: bool = False

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def kinds(self) -> List[str]:
        return [d.kind for d in self.disagreements]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pipeline": {
                "deterministic": self.pipeline_deterministic,
                "idempotent": self.pipeline_idempotent,
                "error": self.pipeline_error,
                "race_pair": (
                    list(self.race_pair) if self.race_pair else None
                ),
                "race_path": self.race_path,
            },
            "oracle": {
                "deterministic": self.oracle_deterministic,
                "idempotent": self.oracle_idempotent,
                "skipped": self.oracle_skipped,
                "skip_reason": self.oracle_skip_reason,
                "racing": [list(pair) for pair in self.oracle_racing],
            },
            "disagreements": [
                d.to_dict() for d in self.disagreements
            ],
            "lint": (
                {
                    "definite_pairs": [
                        list(pair) for pair in self.lint_definite_pairs
                    ],
                    "candidates": self.lint_candidates,
                    "missed_definite_race": (
                        self.lint_missed_definite_race
                    ),
                }
                if self.lint_ran
                else None
            ),
        }


def run_source(
    source: str,
    name: str = "<fuzz>",
    options: Optional[DeterminismOptions] = None,
    context: Optional[ModelContext] = None,
    oracle_seed: int = 0,
    oracle_max_states: int = 24,
    oracle_max_evaluations: int = 50_000,
    lint: bool = False,
) -> CaseOutcome:
    """Differential-check one manifest source; see module docstring."""
    outcome = CaseOutcome(name=name)
    tool = Rehearsal(context=context, options=options)
    # Build the frontend once; the pipeline verifies on it and the
    # oracle explores the same graph/programs (with_prelude is a pure
    # function of the frontend).
    from repro.errors import ReproError

    try:
        front = tool.frontend(source)
        compiled = tool.with_prelude(front)
    except ReproError:
        front = compiled = None  # verify() reports the error itself
    report = tool.verify(source, name=name, compiled=front)
    outcome.pipeline_deterministic = report.deterministic
    outcome.pipeline_idempotent = report.idempotent
    outcome.pipeline_error = report.error
    det = report.determinism

    if report.error is not None or compiled is None:
        if report.error is not None and not report.error_transient:
            outcome.disagreements.append(
                Disagreement(
                    kind="pipeline_error",
                    detail=f"pipeline failed on a generated case: "
                    f"{report.error}",
                )
            )
        return outcome

    graph, programs = compiled

    witness_states = []
    if det is not None and det.witness_fs is not None:
        witness_states.append(det.witness_fs)
        if det.witness_orders is not None:
            order_a, order_b = det.witness_orders
            out_a = _replay(programs, order_a, det.witness_fs)
            out_b = _replay(programs, order_b, det.witness_fs)
            if out_a == out_b:
                outcome.disagreements.append(
                    Disagreement(
                        kind="witness_invalid",
                        detail=(
                            "witness orders produce identical concrete "
                            f"outcomes on the witness state "
                            f"{det.witness_fs!r}"
                        ),
                    )
                )

    lint_report = None
    if lint:
        from repro.analysis.lint import lint_graph

        lint_report = lint_graph(graph, programs, name=name)
        outcome.lint_ran = True
        outcome.lint_definite_pairs = [
            tuple(pair) for pair in lint_report.definite_race_pairs()
        ]
        outcome.lint_candidates = lint_report.stats.race_candidates
        # Feed every lint divergence witness to the oracle: if lint's
        # "definite" race is bogus, the oracle must still come back
        # deterministic even when handed lint's own initial state.
        witness_states.extend(
            w.initial for w in lint_report.race_witnesses
        )

    oracle = run_oracle(
        graph,
        programs,
        extra_states=witness_states,
        max_states=oracle_max_states,
        max_evaluations=oracle_max_evaluations,
        seed=oracle_seed,
    )
    outcome.oracle_deterministic = oracle.deterministic
    outcome.oracle_idempotent = oracle.idempotent
    outcome.oracle_skipped = oracle.skipped
    outcome.oracle_skip_reason = oracle.skip_reason
    outcome.oracle_racing = [r.key for r in oracle.racing]

    if oracle.skipped:
        return outcome

    if lint_report is not None:
        if outcome.lint_definite_pairs and oracle.deterministic is True:
            outcome.disagreements.append(
                Disagreement(
                    kind="lint_false_race",
                    detail=(
                        "lint flagged definite races "
                        f"{outcome.lint_definite_pairs} but the oracle "
                        "(fed lint's own divergence witnesses) finds "
                        "the case deterministic"
                    ),
                )
            )
        if oracle.deterministic is False and not outcome.lint_definite_pairs:
            outcome.lint_missed_definite_race = True

    if report.deterministic is True and oracle.deterministic is False:
        div = oracle.divergence
        outcome.disagreements.append(
            Disagreement(
                kind="missed_nondet",
                detail=(
                    "pipeline: deterministic; oracle: orders "
                    f"{div.order_a} and {div.order_b} diverge from "
                    f"{div.initial!r}"
                ),
            )
        )
    elif report.deterministic is False and oracle.deterministic is True:
        outcome.disagreements.append(
            Disagreement(
                kind="false_nondet",
                detail=(
                    "pipeline: non-deterministic; oracle found no "
                    "concrete divergence, even from the pipeline's own "
                    "witness state"
                ),
            )
        )

    if (
        report.deterministic is True
        and oracle.deterministic is True
    ):
        _check_idempotence(outcome, report, graph, programs, oracle)

    if (
        det is not None
        and det.race is not None
        and oracle.deterministic is False
        and oracle.racing
    ):
        _check_race(outcome, det, oracle)
    return outcome


def _check_idempotence(outcome, report, graph, programs, oracle) -> None:
    if report.idempotent is True and oracle.idempotent is False:
        initial, once, twice = oracle.idempotence_witness
        outcome.disagreements.append(
            Disagreement(
                kind="missed_nonidempotence",
                detail=(
                    f"pipeline: idempotent; oracle: from {initial!r} "
                    f"one run gives {once!r} but a second gives "
                    f"{twice!r}"
                ),
            )
        )
    elif report.idempotent is False:
        idem = report.idempotence
        witness = idem.witness_fs if idem is not None else None
        if witness is not None:
            order = topological_sort(graph)
            once = _replay(programs, order, witness)
            twice = (
                ERROR if once is ERROR else _replay(programs, order, once)
            )
            if once is ERROR or twice == once:
                outcome.disagreements.append(
                    Disagreement(
                        kind="idempotence_witness_invalid",
                        detail=(
                            "pipeline: non-idempotent, but its witness "
                            f"{witness!r} does not concretely exhibit "
                            "a second-run change"
                        ),
                    )
                )


def _check_race(outcome, det, oracle) -> None:
    claimed = tuple(
        sorted((str(det.race.resource_a), str(det.race.resource_b)))
    )
    outcome.race_pair = claimed
    outcome.race_path = (
        str(det.race.path) if det.race.path is not None else None
    )
    truth = {r.key: r for r in oracle.racing}
    if claimed not in truth:
        outcome.disagreements.append(
            Disagreement(
                kind="race_pair_mismatch",
                detail=(
                    f"localization blamed {claimed} but the "
                    "concretely racing pairs are "
                    f"{sorted(truth)}"
                ),
            )
        )
        return
    pair = truth[claimed]
    if (
        outcome.race_path is not None
        and pair.paths
        and not pair.ok_divergence
        and outcome.race_path not in pair.paths
    ):
        outcome.disagreements.append(
            Disagreement(
                kind="race_path_mismatch",
                detail=(
                    f"localization blamed path {outcome.race_path} "
                    f"but {claimed} concretely diverges on "
                    f"{list(pair.paths)}"
                ),
            )
        )


def _replay(programs, order, initial):
    state = initial
    for node in order:
        state = eval_expr(programs[node], state)
        if state is ERROR:
            return ERROR
    return state


# -- the fuzz session ---------------------------------------------------------


@dataclass
class Finding:
    """One disagreeing case, possibly shrunk."""

    case: GeneratedCase
    outcome: CaseOutcome
    shrunk: Optional[GeneratedCase] = None
    shrink_attempts: int = 0
    #: The differential outcome of the final reproducer (captured from
    #: the shrinker's last successful predicate run — no re-check).
    final_outcome: Optional[CaseOutcome] = None

    @property
    def reproducer(self) -> GeneratedCase:
        return self.shrunk if self.shrunk is not None else self.case

    @property
    def reproducer_outcome(self) -> CaseOutcome:
        return (
            self.final_outcome
            if self.final_outcome is not None
            else self.outcome
        )

    def to_dict(self) -> dict:
        return {
            "case_id": self.case.case_id,
            "case_seed": self.case.case_seed,
            "bug_class": self.case.bug,
            "kinds": self.outcome.kinds(),
            "disagreements": [
                d.to_dict() for d in self.outcome.disagreements
            ],
            "resources": len(self.case.resources),
            "shrunk_resources": len(self.reproducer.resources),
            "shrink_attempts": self.shrink_attempts,
        }


@dataclass
class FuzzSummary:
    seed: int
    case_quota: int
    cases_run: int = 0
    truncated: bool = False
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    elapsed_seconds: float = 0.0  # excluded from the JSON summary
    #: Lint cross-examination tallies (``--lint`` runs only).
    lint_enabled: bool = False
    lint_definite_races: int = 0  # cases with ≥1 REH005
    lint_false_races: int = 0  # failing: oracle refuted a REH005
    lint_missed_definite_races: int = 0  # counted, never failing

    @property
    def disagreement_count(self) -> int:
        return len(self.findings)

    def to_json(self) -> str:
        """The byte-reproducible run summary: everything here is a
        pure function of (seed, quota, code version) — no wall-clock
        data except the ``truncated`` safety flag.  Schema 2 added the
        ``lint`` block."""
        payload = {
            "schema": 2,
            "tool_version": __version__,
            "generator_version": GENERATOR_VERSION,
            "seed": self.seed,
            "case_quota": self.case_quota,
            "cases_run": self.cases_run,
            "truncated": self.truncated,
            "verdict_counts": dict(sorted(self.verdict_counts.items())),
            "disagreement_count": self.disagreement_count,
            "findings": [f.to_dict() for f in self.findings],
            "lint": {
                "enabled": self.lint_enabled,
                "definite_races": self.lint_definite_races,
                "false_races": self.lint_false_races,
                "missed_definite_races": self.lint_missed_definite_races,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class FuzzSession:
    """One seeded differential-fuzzing run."""

    def __init__(
        self,
        seed: int,
        budget_seconds: float = 60.0,
        cases: Optional[int] = None,
        shrink: bool = True,
        options: Optional[DeterminismOptions] = None,
        progress=None,
        lint: bool = False,
    ):
        self.seed = seed
        self.budget_seconds = budget_seconds
        self.quota = (
            cases
            if cases is not None
            else max(1, int(budget_seconds * CASES_PER_SECOND))
        )
        self.shrink = shrink
        self.generator = CaseGenerator(seed)
        self.options = options
        self.progress = progress or (lambda message: None)
        self.lint = lint

    def run(self) -> FuzzSummary:
        from repro.testing.shrink import shrink_case

        summary = FuzzSummary(
            seed=self.seed,
            case_quota=self.quota,
            lint_enabled=self.lint,
        )
        start = time.monotonic()
        deadline = start + self.budget_seconds
        for case_id in range(self.quota):
            if time.monotonic() > deadline:
                summary.truncated = True
                self.progress(
                    f"wall-clock budget exhausted after "
                    f"{summary.cases_run} cases"
                )
                break
            case = self.generator.generate(case_id)
            outcome = self.check_case(case)
            summary.cases_run += 1
            key = _verdict_key(outcome)
            summary.verdict_counts[key] = (
                summary.verdict_counts.get(key, 0) + 1
            )
            if outcome.lint_ran:
                if outcome.lint_definite_pairs:
                    summary.lint_definite_races += 1
                if outcome.lint_missed_definite_race:
                    summary.lint_missed_definite_races += 1
                if any(
                    d.kind == "lint_false_race"
                    for d in outcome.disagreements
                ):
                    summary.lint_false_races += 1
            if outcome.agreed:
                continue
            self.progress(
                f"case {case_id} ({case.bug}): DISAGREEMENT "
                f"{outcome.kinds()}"
            )
            finding = Finding(case=case, outcome=outcome)
            if self.shrink:
                predicate, last_success = self._same_kinds(outcome)
                finding.shrunk, finding.shrink_attempts = shrink_case(
                    case, predicate
                )
                finding.final_outcome = last_success.get("outcome")
                self.progress(
                    f"case {case_id}: shrunk "
                    f"{len(case.resources)} -> "
                    f"{len(finding.reproducer.resources)} resources"
                )
            summary.findings.append(finding)
        summary.elapsed_seconds = time.monotonic() - start
        return summary

    def check_case(self, case: GeneratedCase) -> CaseOutcome:
        return run_source(
            case.source,
            name=case.name,
            options=self.options,
            oracle_seed=case.case_seed,
            lint=self.lint,
        )

    def _same_kinds(self, original: CaseOutcome):
        """The shrinking predicate (a candidate still reproduces if it
        exhibits every disagreement kind of the original finding) plus
        a mutable cell capturing the outcome of the last *accepted*
        candidate — which is the final reproducer, so its verdicts
        need no re-check."""
        wanted = set(original.kinds())
        last_success: Dict[str, CaseOutcome] = {}

        def predicate(candidate: GeneratedCase) -> bool:
            outcome = self.check_case(candidate)
            if wanted <= set(outcome.kinds()):
                last_success["outcome"] = outcome
                return True
            return False

        return predicate, last_success


def _verdict_key(outcome: CaseOutcome) -> str:
    if outcome.pipeline_error is not None:
        return "error"
    if outcome.oracle_skipped:
        return "oracle_skipped"
    if outcome.pipeline_deterministic is False:
        return "nondeterministic"
    if outcome.pipeline_idempotent is False:
        return "nonidempotent"
    return "verified"
