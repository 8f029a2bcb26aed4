"""Race validation agrees with the concrete reference, at pinned effort.

After a NO verdict, :func:`repro.analysis.localize._concretely_racing`
checks which candidate pairs swap to different outcomes at some state
reachable from the witness.  :func:`repro.testing.oracle.racing_pairs`,
the fuzz harness's reference, answers the same question on its own
walk.  For every NO case of ``CaseGenerator(42)`` cases 0–299 the two
must name the same candidate pairs from the same witness.  The walk
visits each fringe in ``str`` order and evaluates each resource once
per state, so its total evaluation count is pinned and does not follow
the hash seed.
"""

import pytest

from repro.analysis import localize
from repro.core.pipeline import Rehearsal
from repro.fs.semantics import ConcreteRunner
from repro.testing import CaseGenerator
from repro.testing.oracle import racing_pairs

SEED, CASES = 42, 300

#: Concrete evaluations all validation walks of the slice take together.
EVALUATIONS = 1195


@pytest.fixture(scope="module")
def slice_run():
    """Every ``_concretely_racing`` call of the slice, with its inputs
    and answer, the number of NO verdicts, and the walks' evaluations."""
    calls, runners = [], []
    original = localize._concretely_racing

    class CountingRunner(ConcreteRunner):
        def __init__(self, programs):
            super().__init__(programs)
            runners.append(self)

    def spy(graph, programs, witness, pairs, eval_limit):
        racing = original(graph, programs, witness, pairs, eval_limit)
        calls.append((graph, programs, witness, list(pairs), racing))
        return racing

    patch = pytest.MonkeyPatch()
    patch.setattr(localize, "_concretely_racing", spy)
    patch.setattr(localize, "ConcreteRunner", CountingRunner)
    try:
        nondet = sum(
            not Rehearsal().check_determinism(case.source).deterministic
            for case in CaseGenerator(SEED).cases(CASES)
        )
    finally:
        patch.undo()
    return calls, nondet, sum(r.evaluations for r in runners)


def test_every_no_case_is_validated(slice_run):
    calls, nondet, _ = slice_run
    assert nondet > 0
    assert len(calls) == nondet


def test_racing_set_matches_the_oracle(slice_run):
    calls, _, _ = slice_run
    for graph, programs, witness, pairs, racing in calls:
        assert racing is not None  # the budget never runs dry here
        candidates = {(str(a), str(b)) for a, b in pairs}
        reference = {
            (r.a, r.b) for r in racing_pairs(graph, programs, witness)
        }
        assert {(str(a), str(b)) for a, b in racing} == (
            reference & candidates
        )


def test_validation_evaluations_are_pinned(slice_run):
    _, _, evaluations = slice_run
    assert evaluations == EVALUATIONS
