"""Fig. 13 — scalability against n unordered conflicting writes.

n resources all overwrite the same path, defeating both the
commutativity check and pruning: the order space is the full n!
permutation set.  The first two finals the walk reaches already
diverge, so eager first-divergence racing stops after exactly two
distinct finals.  The paper reports >2 minutes at n = 6 on Z3.

Default runs cover n = 2..6; set ``REHEARSAL_BENCH_FULL=1`` to extend
to n = 8 (the full-mode sweep ``run_figures.py`` also reports).

The second group reproduces the paper's harder deterministic variant:
a final resource ordered after all writers forces a full walk instead
of an early satisfying model.  The reachable-state memoization
collapses that walk to the subset/state lattice — after applying any
subset the symbolic state depends only on (subset, last writer), so
the checker explores n + n(n-1)·2^(n-2) edges (plus n into the final
writer) instead of sum_k n!/(n-k)! branches.  Expected shape:
exponential, decisively sub-factorial, with nonzero memo hits from
n = 3 on.  ``DeterminismOptions(use_memoization=False)`` still
reproduces the factorial curve.
"""

import os

import pytest

from repro.analysis.determinism import DeterminismOptions, check_determinism
from repro.bench.harness import (
    fig13_lattice_bound,
    synthetic_conflict_graph,
    synthetic_deterministic_graph,
)

FULL_MODE = os.environ.get("REHEARSAL_BENCH_FULL", "") not in ("", "0")

NS = (2, 3, 4, 5, 6, 7, 8) if FULL_MODE else (2, 3, 4, 5, 6)


@pytest.mark.parametrize("n", NS)
def test_fig13_conflicting_writes(benchmark, bench_timeout, n):
    graph, programs = synthetic_conflict_graph(n)
    options = DeterminismOptions(
        timeout_seconds=bench_timeout, max_branches=500_000
    )

    result = benchmark.pedantic(
        check_determinism,
        args=(graph, programs),
        kwargs={"options": options},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["n"] = n
    assert not result.deterministic
    stats = result.stats
    benchmark.extra_info["branches"] = stats.branches_explored
    benchmark.extra_info["memo_hits"] = stats.memo_hits
    benchmark.extra_info["distinct_finals"] = stats.distinct_finals
    # The early-exit guard: the second final diverges from the first.
    assert stats.distinct_finals == 2


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6) if FULL_MODE else (2, 3, 4, 5))
def test_fig13_deterministic_variant(benchmark, bench_timeout, n):
    graph, programs = synthetic_deterministic_graph(n)
    options = DeterminismOptions(
        timeout_seconds=bench_timeout, max_branches=500_000
    )

    result = benchmark.pedantic(
        check_determinism,
        args=(graph, programs),
        kwargs={"options": options},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["n"] = n
    benchmark.extra_info["branches"] = result.stats.branches_explored
    benchmark.extra_info["memo_hits"] = result.stats.memo_hits
    assert result.deterministic
    # The structural guards: exploration stays on the subset/state
    # lattice, far below the order tree, and from n = 3 the lattice
    # genuinely converges.  A memoization regression trips these even
    # on a machine fast enough to hide the wall-clock difference.
    stats = result.stats
    assert stats.branches_explored <= fig13_lattice_bound(n) + n
    assert stats.distinct_finals == 1
    if n >= 3:
        assert stats.memo_hits > 0
