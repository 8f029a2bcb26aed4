#!/usr/bin/env python3
"""Fail CI when determinacy exploration walks too many branches.

Usage:  PYTHONPATH=src python tools/check_branch_budget.py

Wall-clock regression guards (``compare_baseline.py``) conflate
machine speed with algorithmic regressions; this check is structural.
It runs the determinacy analysis over the whole §6 corpus (the 13
benchmarks and their 6 fixed variants) plus the Fig. 13 synthetic
workload under the production configuration and asserts that

* every corpus manifest stays within a fixed per-manifest branch
  budget (the corpus is small after elimination/commutativity — a
  blow-up here means a reduction broke);
* the corpus total stays within a fixed overall budget;
* irc-nondet, the corpus manifest with the most finals, stops at its
  first diverging final — the eager-racing tripwire;
* irc-fixed reaches one final and asks SAT nothing: every resource
  it leaves unordered touches ``/etc`` only after an ancestor has
  ensured it — the graph-aware commutativity tripwire;
* the deterministic Fig. 13 variant at n = 6 stays on the
  subset/state lattice (sub-factorial branches, nonzero memo hits) —
  the memoization regression tripwire.  (The non-deterministic
  workload stops at its second final, so it no longer exercises the
  lattice.)

Budgets are deliberately loose (≈4x current numbers) so routine
modeling changes pass, while a lost reduction — which changes the
asymptotics, not the constant — still fails.

Exit codes: 0 — within budget; 1 — budget exceeded.
"""

from __future__ import annotations

import sys

from repro.analysis.determinism import DeterminismOptions, check_determinism
from repro.bench.harness import (
    fig13_lattice_bound,
    synthetic_deterministic_graph,
)
from repro.core.pipeline import Rehearsal
from repro.corpus import BENCHMARK_NAMES, FIXED_VARIANTS, load_source

CORPUS = BENCHMARK_NAMES + sorted(FIXED_VARIANTS)

#: Current corpus numbers: 9 branches max (irc-nondet), 34 total.
MAX_BRANCHES_PER_MANIFEST = 150
MAX_BRANCHES_TOTAL = 250

#: irc-nondet walks 21 branches to all 5 of its finals; racing each
#: final as it lands stops the walk at the second, after 9.
EARLY_EXIT_MANIFEST = "irc-nondet"
EARLY_EXIT_MAX_BRANCHES = 9

#: irc-fixed's unordered pairs conflict only on ``/etc``, which an
#: ancestor ensures and nothing writes, so they all commute.
NO_SAT_MANIFEST = "irc-fixed"

#: The deterministic Fig. 13 variant at n = 6: the subset/state
#: lattice has 486 edges (see
#: :func:`repro.bench.harness.fig13_lattice_bound`) plus 6 into the
#: final writer; the order tree has 1956 + 720 branches.  Anything
#: above the bound means memoization stopped merging.
FIG13_N = 6
FIG13_MAX_BRANCHES = fig13_lattice_bound(FIG13_N) + FIG13_N


def main() -> int:
    tool = Rehearsal()
    failures = []
    total = 0
    width = max(len(n) for n in CORPUS)
    print(
        f"{'benchmark'.ljust(width)}  branches  memo hits  "
        "merged  finals"
    )
    for name in CORPUS:
        graph, programs = tool.compile(load_source(name))
        stats = check_determinism(
            graph, programs, DeterminismOptions()
        ).stats
        total += stats.branches_explored
        print(
            f"{name.ljust(width)}  {stats.branches_explored:8d}  "
            f"{stats.memo_hits:9d}  {stats.states_merged:6d}  "
            f"{stats.distinct_finals:6d}"
        )
        if stats.branches_explored > MAX_BRANCHES_PER_MANIFEST:
            failures.append(
                f"{name}: {stats.branches_explored} branches exceed "
                f"the per-manifest budget of {MAX_BRANCHES_PER_MANIFEST}"
            )
        if (
            name == EARLY_EXIT_MANIFEST
            and stats.branches_explored > EARLY_EXIT_MAX_BRANCHES
        ):
            failures.append(
                f"{name}: {stats.branches_explored} branches exceed "
                f"{EARLY_EXIT_MAX_BRANCHES} — exploration no longer "
                "stops at the first diverging final"
            )
        if name == NO_SAT_MANIFEST and (
            stats.distinct_finals != 1 or stats.sat_queries
        ):
            failures.append(
                f"{name}: {stats.distinct_finals} finals and "
                f"{stats.sat_queries} SAT queries, expected 1 and 0 — "
                "settled directories no longer commute"
            )
    print(f"{'TOTAL'.ljust(width)}  {total:8d}")
    if total > MAX_BRANCHES_TOTAL:
        failures.append(
            f"corpus total {total} branches exceeds the budget of "
            f"{MAX_BRANCHES_TOTAL}"
        )

    graph, programs = synthetic_deterministic_graph(FIG13_N)
    stats = check_determinism(
        graph,
        programs,
        DeterminismOptions(max_branches=500_000),
    ).stats
    print(
        f"fig13 deterministic n={FIG13_N}: "
        f"{stats.branches_explored} branches, "
        f"{stats.memo_hits} memo hits, "
        f"{stats.distinct_finals} distinct finals "
        f"(lattice bound {FIG13_MAX_BRANCHES}, order tree 2676)"
    )
    if stats.branches_explored > FIG13_MAX_BRANCHES:
        failures.append(
            f"fig13 n={FIG13_N}: {stats.branches_explored} branches "
            f"exceed the state-lattice bound {FIG13_MAX_BRANCHES} — "
            "exploration memoization has regressed"
        )
    if stats.memo_hits == 0:
        failures.append(
            f"fig13 n={FIG13_N}: zero memo hits — interleavings no "
            "longer converge on the reachable-state DAG"
        )

    if failures:
        print("\nexploration budget exceeded:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nexploration within budget.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
