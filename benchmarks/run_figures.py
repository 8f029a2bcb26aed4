#!/usr/bin/env python3
"""Regenerate every figure of the paper's §6 as text tables.

Run:  PYTHONPATH=src python benchmarks/run_figures.py [--timeout SECONDS]
                                                      [--smoke]

``--smoke`` runs a seconds-long subset: Fig. 11a over the whole
corpus, the Fig. 11b/11c runs over two representative benchmarks, and
Fig. 13 at small n — enough to see a broken corpus or harness without
paying for the full sweep.

The effort counters behind these tables are pinned by
``tests/test_pinned_effort.py`` (see docs/testing.md); the seconds are
this machine's and gate nothing.
"""

from __future__ import annotations

import argparse

from harness import (
    BENCHMARK_NAMES,
    determinism_runs,
    fig11a_rows,
    fig11b_rows,
    fig11c_rows,
    fig12_rows,
    fig13_exploration_rows,
    fig13_lattice_bound,
    fig13_rows,
    render_rows,
    verdict_rows,
)

SMOKE_NAMES = ("ntp-nondet", "ntp-fixed")

#: Printed under the first title with timed determinacy cells.
CELL_LEGEND = (
    "timed cells: seconds, then b branches explored, m memo hits, "
    "f distinct finals, q SAT queries, c SAT conflicts "
    "(? where a timed-out run cannot know)"
)


def figures(timeout: float, smoke: bool):
    """Yield (title, header, rows) per figure, computing each only
    when the previous one has been printed."""
    names = SMOKE_NAMES if smoke else tuple(BENCHMARK_NAMES)
    subset = " (smoke subset)" if smoke else ""

    yield (
        "Fig. 11a — written paths per state (pruning off / on)",
        ["benchmark", "no pruning", "pruning"],
        fig11a_rows(),
    )
    runs = determinism_runs(names, timeout=timeout)
    yield (
        f"Fig. 11b{subset} — determinacy time, commutativity on "
        f"(§4.4 passes off / on)\n{CELL_LEGEND}",
        ["benchmark", "no pruning", "pruning"],
        fig11b_rows(runs),
    )
    yield (
        f"Fig. 11c{subset} — determinacy time, §4.4 passes off "
        "(commutativity off / on)",
        ["benchmark", "no commutativity", "commutativity"],
        fig11c_rows(runs),
    )
    if not smoke:
        yield (
            "Fig. 12 — idempotence-check time",
            ["benchmark", "time"],
            fig12_rows(),
        )
    yield (
        f"Fig. 13{subset} — n conflicting writes (non-deterministic: "
        "early SAT model)",
        ["n", "run"],
        fig13_rows(ns=(2, 3) if smoke else (2, 3, 4, 5, 6), timeout=timeout),
    )
    ns = (2, 3, 4, 5, 6) if smoke else (2, 3, 4, 5, 6, 7, 8)
    yield (
        f"Exploration{subset} — reachable-state DAG on the "
        "deterministic Fig. 13 variant (branches vs. the lattice bound)",
        ["n", "lattice bound", "run"],
        [
            (n, fig13_lattice_bound(n) + n, result)
            for n, result in fig13_exploration_rows(ns=ns, timeout=timeout)
        ],
    )
    if not smoke:
        yield (
            '§6 "Bugs found" — verdicts',
            ["benchmark", "deterministic", "idempotent (of fix)"],
            [
                (name, "yes" if det else "NO", "yes" if idem else "NO")
                for name, det, idem in verdict_rows()
            ],
        )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        help="per-configuration budget in seconds (paper: 600)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast subset: Fig. 11a plus two benchmarks",
    )
    args = parser.parse_args()
    for i, (title, header, rows) in enumerate(
        figures(args.timeout, args.smoke)
    ):
        if i:
            print()
        print(render_rows(title, header, rows), flush=True)


if __name__ == "__main__":
    main()
