"""The §6 figures' effort counters are pinned exactly.

``benchmarks/baseline.json`` holds, per figure and row, what the run
behind that row costs in deterministic effort: the written-path counts
of Fig. 11a, and for each timed determinacy cell the branches
explored, memo hits, distinct finals, SAT queries and SAT conflicts
(:data:`harness.COUNTERS`).  Seconds depend on the machine and are
not pinned.  The pinned set:

* ``fig11a`` — the 13 benchmarks;
* ``production`` and ``commutativity`` (§4.4 passes off) — all 19
  corpus manifests;
* ``no-commutativity`` — ntp-nondet and ntp-fixed only (without
  commutativity, hosting and jpa exceed a 20 s budget);
* ``fig13`` at n = 2, 3 and ``exploration`` at n = 2..6.

A change that should keep the analysis's search leaves the file
untouched; one that changes it re-records the file in the same commit:

    PYTHONPATH=src python tests/test_pinned_effort.py

The tripwires at the bottom hold the committed file itself to the
structural facts the reductions promise, so a re-record that records
a regression still fails, with the reason.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "baseline.json"
sys.path.insert(0, str(ROOT / "benchmarks"))

from harness import (  # noqa: E402
    determinism_runs,
    fig11a_rows,
    fig13_exploration_rows,
    fig13_lattice_bound,
    fig13_rows,
)
from repro.corpus import BENCHMARK_NAMES, FIXED_VARIANTS  # noqa: E402

CORPUS = tuple(BENCHMARK_NAMES) + tuple(sorted(FIXED_VARIANTS))
NO_COMMUTATIVITY_NAMES = ("ntp-nondet", "ntp-fixed")


def measure():
    """figure → row → pinned value, from a fresh in-process run."""
    runs = determinism_runs(CORPUS, ("commutativity", "production"))
    no_commutativity = determinism_runs(
        NO_COMMUTATIVITY_NAMES, ("no-commutativity",)
    )

    def column(by_name, config):
        return {name: by[config].counters() for name, by in by_name.items()}

    return {
        "fig11a": {
            name: [before, after] for name, before, after in fig11a_rows()
        },
        "production": column(runs, "production"),
        "commutativity": column(runs, "commutativity"),
        "no-commutativity": column(no_commutativity, "no-commutativity"),
        "fig13": {
            f"n={n}": result.counters() for n, result in fig13_rows(ns=(2, 3))
        },
        "exploration": {
            f"n={n}": result.counters()
            for n, result in fig13_exploration_rows(ns=(2, 3, 4, 5, 6))
        },
    }


def render(pinned):
    """One figure per key and one row per line."""
    blocks = []
    for figure, rows in pinned.items():
        lines = ",\n".join(
            f"    {json.dumps(row)}: {json.dumps(value)}"
            for row, value in rows.items()
        )
        blocks.append(f"  {json.dumps(figure)}: {{\n{lines}\n  }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


PINNED = json.loads(BASELINE.read_text())
ROWS = [(figure, row) for figure, rows in PINNED.items() for row in rows]


@pytest.fixture(scope="module")
def fresh():
    return measure()


def test_fresh_run_has_the_pinned_rows(fresh):
    assert {figure: list(rows) for figure, rows in fresh.items()} == {
        figure: list(rows) for figure, rows in PINNED.items()
    }


@pytest.mark.parametrize(
    "figure, row", ROWS, ids=[f"{figure}-{row}" for figure, row in ROWS]
)
def test_row_matches_the_pin(fresh, figure, row):
    assert fresh[figure][row] == PINNED[figure][row]


# -- tripwires on the committed file ------------------------------------------

#: The old per-manifest and total exploration budgets (about four
#: times the numbers they were set at): a lost reduction changes the
#: asymptotics, not the constant.
MAX_BRANCHES_PER_MANIFEST = 150
MAX_BRANCHES_TOTAL = 250


def test_irc_fixed_needs_no_sat():
    # Every pair irc-fixed leaves unordered conflicts only on /etc,
    # which an ancestor ensures and nothing writes, so all commute.
    row = PINNED["production"]["irc-fixed"]
    assert (row["distinct_finals"], row["sat_queries"]) == (1, 0), (
        "settled directories no longer commute"
    )


def test_irc_nondet_stops_at_the_first_diverging_final():
    # irc-nondet walks 21 branches to all 5 of its finals; racing each
    # final as it lands stops the walk at the second, after 9.
    assert PINNED["production"]["irc-nondet"]["branches_explored"] <= 9, (
        "exploration no longer stops at the first diverging final"
    )


def test_exploration_stays_on_the_subset_state_lattice():
    # The deterministic Fig. 13 variant at n = 6: 486 lattice edges
    # plus 6 into the final writer, against 1956 + 720 branches for
    # the order tree.
    row = PINNED["exploration"]["n=6"]
    assert row["branches_explored"] == fig13_lattice_bound(6) + 6, (
        "exploration memoization has regressed"
    )
    assert row["memo_hits"] > 0, (
        "interleavings no longer converge on the reachable-state DAG"
    )


def test_corpus_stays_within_the_exploration_budgets():
    branches = {
        name: row["branches_explored"]
        for name, row in PINNED["production"].items()
    }
    assert sorted(branches) == sorted(CORPUS)
    over = {n: b for n, b in branches.items() if b > MAX_BRANCHES_PER_MANIFEST}
    assert not over, (
        f"{over} exceed the per-manifest budget of {MAX_BRANCHES_PER_MANIFEST}"
    )
    assert sum(branches.values()) <= MAX_BRANCHES_TOTAL, (
        f"corpus total exceeds the budget of {MAX_BRANCHES_TOTAL}"
    )


if __name__ == "__main__":
    BASELINE.write_text(render(measure()))
