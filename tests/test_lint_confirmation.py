"""Race confirmation is pinned on the corpus, and its budget holds.

``tests/data/lint-race-confirmation.json`` holds, for every corpus
manifest, the concrete evaluations lint spends confirming race
candidates, how many it confirms, and each REH005 witness: the pair,
the initial state, both apply orders and both outcomes (filesystems by
their sorted ``repr``).  A change to how confirmation evaluates (order
sharing, memoisation) must leave the file untouched; one that changes
what it finds re-records it in the same commit:

    PYTHONPATH=src python tests/test_lint_confirmation.py
"""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import lint_source
from repro.analysis.lint.rules import races
from repro.corpus import CASES, FIXED_VARIANTS, load_source

PINS = Path(__file__).resolve().parent / "data" / "lint-race-confirmation.json"
CORPUS = sorted(CASES) + sorted(FIXED_VARIANTS)


def confirmation(name: str) -> dict:
    report = lint_source(load_source(name), name=f"{name}.pp")
    return {
        "confirm_evaluations": report.stats.confirm_evaluations,
        "races_confirmed": report.stats.races_confirmed,
        "witnesses": [
            {
                "pair": [w.a, w.b],
                "initial": repr(w.initial),
                "order_a": [str(n) for n in w.order_a],
                "order_b": [str(n) for n in w.order_b],
                "outcome_a": repr(w.outcome_a),
                "outcome_b": repr(w.outcome_b),
            }
            for w in report.race_witnesses
        ],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINS.read_text())


def test_pins_cover_the_corpus(pinned):
    assert sorted(pinned) == sorted(CORPUS)


@pytest.mark.parametrize("name", CORPUS)
def test_confirmation_matches_pin(pinned, name):
    assert confirmation(name) == pinned[name]


@pytest.mark.parametrize("budget", [1, 2, 7, 10, 30])
def test_small_budget_is_exhausted_and_never_exceeded(budget, monkeypatch):
    """irc-nondet needs 34 evaluations to confirm its two races; below
    that the budget runs dry, nothing is confirmed, and each candidate
    stays a warning that says why."""
    monkeypatch.setattr(races, "_MAX_EVALUATIONS", budget)
    report = lint_source(load_source("irc-nondet"), name="irc-nondet.pp")
    stats = report.stats
    assert stats.confirm_budget_exhausted
    assert stats.confirm_evaluations <= budget
    assert stats.races_confirmed == 0 and not report.race_witnesses
    possible = [d for d in report.diagnostics if d.rule_id == "REH006"]
    assert len(possible) == stats.race_candidates == 2
    assert all(
        "unconfirmed within the evaluation budget" in d.message
        for d in possible
    )


def test_budget_that_suffices_is_not_exhausted(pinned, monkeypatch):
    needed = pinned["irc-nondet"]["confirm_evaluations"]
    monkeypatch.setattr(races, "_MAX_EVALUATIONS", needed)
    report = lint_source(load_source("irc-nondet"), name="irc-nondet.pp")
    assert not report.stats.confirm_budget_exhausted
    assert report.stats.confirm_evaluations == needed
    assert report.stats.races_confirmed == 2


if __name__ == "__main__":
    PINS.write_text(
        json.dumps({name: confirmation(name) for name in CORPUS}, indent=1)
        + "\n"
    )
