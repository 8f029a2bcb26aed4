#!/usr/bin/env python3
"""Regenerate every figure of the paper's §6 as text tables.

This is the standalone companion to the pytest-benchmark suite: it
prints the same rows/series the paper plots, suitable for pasting into
EXPERIMENTS.md.

Run:  python benchmarks/run_figures.py [--timeout SECONDS] [--smoke]
                                       [--json PATH]

``--smoke`` runs a seconds-long subset (used by CI): Fig. 11a over the
whole corpus, the time figures over two representative benchmarks, and
Fig. 13 at small n — enough to catch a broken corpus or harness
without paying for the full sweep.

``--json PATH`` additionally writes a machine-readable report: one
entry per figure with its wall-clock seconds and rendered rows.  The
``bench-regression`` CI job diffs this against the committed
``benchmarks/baseline.json`` (see ``benchmarks/compare_baseline.py``).
"""

from __future__ import annotations

import argparse
import json
import time

from repro.bench.harness import (
    BENCHMARK_NAMES,
    batch_cache_rows,
    batch_throughput_rows,
    corpus_determinism_rows,
    daemon_latency_rows,
    fig11a_rows,
    fig11b_rows,
    fig11c_rows,
    fig12_rows,
    fig13_deterministic_rows,
    fig13_exploration_rows,
    fig13_rows,
    render_rows,
    verdict_rows,
    warm_reverify_rows,
)

SMOKE_NAMES = ("ntp-nondet", "ntp-fixed")

JSON_SCHEMA_VERSION = 1


def figure_specs(timeout: float, smoke: bool):
    """The figure list as (key, title, header, thunk) — lazy, so the
    key set is inspectable without running anything (the baseline
    comparison pins it)."""
    names = SMOKE_NAMES if smoke else tuple(BENCHMARK_NAMES)
    subset = " (smoke subset)" if smoke else ""

    figures = [
        (
            "fig11a",
            "Fig. 11a — written paths per state (pruning off / on)",
            ["benchmark", "no pruning", "pruning"],
            lambda: fig11a_rows(),
        ),
        (
            "corpus-determinism",
            f"Full-corpus determinacy{subset} — production configuration "
            "(incremental per-pair solving)",
            ["benchmark", "time"],
            lambda: corpus_determinism_rows(names=names),
        ),
        (
            "fig11b",
            f"Fig. 11b{subset} — determinacy time, commutativity on "
            "(pruning off / on)",
            ["benchmark", "no pruning", "pruning"],
            lambda: fig11b_rows(timeout=timeout, names=names),
        ),
        (
            "fig11c",
            f"Fig. 11c{subset} — determinacy time, §4.4 passes off "
            "(commutativity off / on)",
            ["benchmark", "no commutativity", "commutativity"],
            lambda: fig11c_rows(timeout=timeout, names=names),
        ),
    ]
    if not smoke:
        figures.append(
            (
                "fig12",
                "Fig. 12 — idempotence-check time",
                ["benchmark", "time"],
                lambda: fig12_rows(),
            )
        )
    figures.append(
        (
            "fig13",
            f"Fig. 13{subset} — n conflicting writes (non-deterministic: "
            "early SAT model)",
            ["n", "time"],
            lambda: fig13_rows(
                ns=(2, 3) if smoke else (2, 3, 4, 5, 6), timeout=timeout
            ),
        )
    )
    figures.append(
        (
            "exploration",
            f"Exploration{subset} — reachable-state DAG on the "
            "deterministic Fig. 13 variant (branches vs. the n! order "
            "tree)",
            ["n", "branches", "memo hits", "distinct finals", "time"],
            lambda: fig13_exploration_rows(
                ns=(2, 3, 4, 5, 6) if smoke else (2, 3, 4, 5, 6, 7, 8),
                timeout=timeout,
            ),
        )
    )
    if not smoke:
        figures.append(
            (
                "fig13-deterministic",
                "Fig. 13 — deterministic variant (full UNSAT proof)",
                ["n", "time"],
                lambda: fig13_deterministic_rows(
                    ns=(2, 3, 4, 5), timeout=timeout
                ),
            )
        )
        figures.append(
            (
                "verdicts",
                '§6 "Bugs found" — verdicts',
                ["benchmark", "deterministic", "idempotent (of fix)"],
                lambda: [
                    (name, "yes" if det else "NO", "yes" if idem else "NO")
                    for name, det, idem in verdict_rows()
                ],
            )
        )
    worker_counts = (1, 2) if smoke else (1, 2, 4)
    figures.append(
        (
            "batch-throughput",
            f"Batch throughput{subset} — corpus via repro.service, "
            "cache off (speedup needs >1 core)",
            ["workers", "time", "speedup"],
            lambda: [
                (workers, seconds, f"{speedup:.2f}x")
                for workers, seconds, speedup in batch_throughput_rows(
                    worker_counts=worker_counts, names=names
                )
            ],
        )
    )
    figures.append(
        (
            "batch-cache",
            f"Verdict cache{subset} — cold vs. warm batch run",
            ["run", "time", "solver time"],
            lambda: batch_cache_rows(names=names),
        )
    )
    figures.append(
        (
            "edit-latency",
            "Edit latency — one-resource edit on a 50-file catalog: "
            "from scratch, with a cold incremental store, and "
            "re-verified against the hot store (see "
            "docs/incremental.md)",
            ["run", "time", "verdict"],
            lambda: warm_reverify_rows(resources=50),
        )
    )
    figures.append(
        (
            "daemon-latency",
            "Daemon latency — warm one-edit re-verify, in-process vs. "
            "an HTTP round trip through `rehearsal serve` (see "
            "docs/serve.md)",
            ["run", "time", "note"],
            lambda: daemon_latency_rows(resources=12),
        )
    )
    return figures


def figure_keys(smoke: bool):
    """The set of figure keys a run would report (without running)."""
    return {key for key, _, _, _ in figure_specs(timeout=0.0, smoke=smoke)}


def collect_figures(timeout: float, smoke: bool):
    """Return a list of (key, title, header, rows, seconds), one per
    figure, printing each table as soon as it is computed."""
    collected = []
    first = True
    for key, title, header, thunk in figure_specs(timeout, smoke):
        start = time.perf_counter()
        rows = thunk()
        seconds = time.perf_counter() - start
        if not first:
            print()
        first = False
        print(render_rows(title, header, rows))
        collected.append((key, title, header, rows, seconds))
    return collected


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
        help="fast subset for CI: Fig. 11a plus two benchmarks",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write a machine-readable per-figure report "
        "(wall-clock seconds + rows) to PATH",
    )
    args = parser.parse_args()
    collected = collect_figures(args.timeout, args.smoke)
    if args.json is not None:
        report = {
            "schema": JSON_SCHEMA_VERSION,
            "smoke": args.smoke,
            "timeout": args.timeout,
            "figures": {
                key: {
                    "title": title,
                    "seconds": round(seconds, 4),
                    "rows": [[str(c) for c in row] for row in rows],
                }
                for key, title, header, rows, seconds in collected
            },
        }
        with open(args.json, "w", encoding="utf8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote JSON report to {args.json}")


if __name__ == "__main__":
    main()
