"""Benchmark harness regenerating every figure of the paper's §6.

The figure-to-configuration mapping follows the paper's experimental
setup:

* **Fig. 11a** — modeled (stateful) paths per benchmark, with and
  without pruning.
* **Fig. 11b / 11c** — determinacy-analysis time under three
  configurations, each run once per manifest
  (:data:`CONFIGURATIONS`).  Fig. 11b toggles the §4.4 passes
  (resource elimination and file pruning, which toggle together here)
  with commutativity on; Fig. 11c toggles the commutativity reduction
  with the §4.4 passes off, where several benchmarks exceed the time
  budget, reproducing the paper's timeouts.  The shared middle
  configuration (commutativity on, §4.4 passes off) is a column of
  both figures.
* **Fig. 12** — idempotence-check time per benchmark (fixed variants
  stand in for the non-deterministic six, per §5).
* **Fig. 13** — determinacy-analysis time against n unordered,
  mutually conflicting file writes: the commutativity check is useless
  by construction, so the order space is the full n!.  The first two
  finals already diverge, so eager first-divergence racing stops
  there.  The deterministic variant (a final writer after all n, the
  ``exploration`` figure) must walk everything; the reachable-state
  memoization collapses that walk to the subset/state lattice (see
  :func:`fig13_lattice_bound`), so the curve is exponential rather
  than factorial; the paper's factorial blow-up is still reproducible
  with ``DeterminismOptions(use_memoization=False)``.

Every timed determinacy cell is a :class:`BenchResult`: the seconds
plus the run's deterministic effort counters (branches, memo hits,
distinct finals, SAT queries, SAT conflicts).  The seconds depend on
the machine; the counters do not, and ``tests/test_pinned_effort.py``
pins them against ``benchmarks/baseline.json``.  Every run passes
``incremental=False``, so a store hit can never change a counter.

Absolute numbers differ from the paper (different machine, a pure
Python CDCL solver instead of Z3); the *shapes* are the reproduction
target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.determinism import DeterminismOptions, check_determinism
from repro.analysis.idempotence import check_idempotence
from repro.analysis.pruning import prune_manifest
from repro.core.pipeline import Rehearsal
from repro.digraph import DiGraph
from repro.corpus import BENCHMARK_NAMES, idempotence_subject, load_source
from repro.errors import AnalysisBudgetExceeded
from repro.fs import Path, creat, file_, ite, none_, rm, seq

DEFAULT_TIMEOUT = 60.0
DEFAULT_MAX_BRANCHES = 20_000

TIMEOUT = float("inf")
"""Sentinel time value reported when the budget is exhausted."""

#: The determinacy configurations behind Fig. 11b and 11c, as
#: (use_commutativity, §4.4 passes).  ``production`` is every §4
#: optimization on, as ``rehearsal verify`` runs.
CONFIGURATIONS: Dict[str, Tuple[bool, bool]] = {
    "no-commutativity": (False, False),
    "commutativity": (True, False),
    "production": (True, True),
}

#: The effort counters every timed cell reports, in display order.
COUNTERS = (
    "branches_explored",
    "memo_hits",
    "distinct_finals",
    "sat_queries",
    "sat_conflicts",
)


@dataclass
class BenchResult:
    """One timed determinacy run.  On an exhausted budget ``seconds``
    is :data:`TIMEOUT`, the exploration counters are those reached so
    far, and the final and SAT counters are None: the budget error
    does not carry them, so they are unknown, not 0."""

    name: str
    seconds: float
    deterministic: Optional[bool] = None
    branches_explored: int = 0
    memo_hits: int = 0
    distinct_finals: Optional[int] = 0
    sat_queries: Optional[int] = 0
    sat_conflicts: Optional[int] = 0

    @property
    def timed_out(self) -> bool:
        return self.seconds == TIMEOUT

    def counters(self) -> Dict[str, Optional[int]]:
        return {key: getattr(self, key) for key in COUNTERS}


def _options(**kwargs) -> DeterminismOptions:
    return DeterminismOptions(incremental=False, **kwargs)


def _compile(name: str):
    return Rehearsal(options=_options()).compile(load_source(name))


def _timed(name, graph, programs, options: DeterminismOptions) -> BenchResult:
    start = time.perf_counter()
    try:
        result = check_determinism(graph, programs, options)
    except AnalysisBudgetExceeded as exc:
        return BenchResult(
            name,
            TIMEOUT,
            branches_explored=exc.branches,
            memo_hits=exc.memo_hits,
            distinct_finals=None,
            sat_queries=None,
            sat_conflicts=None,
        )
    seconds = time.perf_counter() - start
    stats = result.stats
    return BenchResult(
        name,
        seconds,
        result.deterministic,
        **{key: getattr(stats, key) for key in COUNTERS},
    )


def timed_determinism(
    name: str,
    use_commutativity: bool,
    use_pruning: bool,
    timeout: float = DEFAULT_TIMEOUT,
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> BenchResult:
    """One determinacy run under a configuration; budget-aware."""
    graph, programs = _compile(name)
    options = _options(
        use_commutativity=use_commutativity,
        use_pruning=use_pruning,
        use_elimination=use_pruning,  # §4.4 passes toggle together
        timeout_seconds=timeout,
        max_branches=max_branches,
    )
    return _timed(name, graph, programs, options)


# -- Fig. 11a -----------------------------------------------------------------


def fig11a_rows() -> List[Tuple[str, int, int]]:
    """(benchmark, written paths without pruning, with pruning).

    Counts paths some resource *writes* (the paper's "files per
    state"); idempotently-ensured shared directories (the D class of
    §4.3) are excluded from both sides, since they are never prunable
    by construction."""
    from repro.analysis.commutativity import footprint

    rows = []
    for name in BENCHMARK_NAMES:
        graph, programs = _compile(name)
        exprs = list(programs.values())
        before = set().union(*[footprint(e).writes for e in exprs])
        pruned, _ = prune_manifest(exprs)
        after = set().union(*[footprint(e).writes for e in pruned])
        rows.append((name, len(before), len(after)))
    return rows


# -- Fig. 11b / 11c -----------------------------------------------------------


def determinism_runs(
    names: Sequence[str] = tuple(BENCHMARK_NAMES),
    configurations: Sequence[str] = tuple(CONFIGURATIONS),
    timeout: float = DEFAULT_TIMEOUT,
) -> Dict[str, Dict[str, BenchResult]]:
    """name → configuration → result, one run of each configuration
    (a key of :data:`CONFIGURATIONS`) per manifest."""
    return {
        name: {
            config: timed_determinism(
                name, *CONFIGURATIONS[config], timeout=timeout
            )
            for config in configurations
        }
        for name in names
    }


def fig11b_rows(
    runs: Dict[str, Dict[str, BenchResult]],
) -> List[Tuple[str, BenchResult, BenchResult]]:
    """(benchmark, without the §4.4 passes, with them), commutativity
    on, read off :func:`determinism_runs`."""
    return [
        (name, by_config["commutativity"], by_config["production"])
        for name, by_config in runs.items()
    ]


def fig11c_rows(
    runs: Dict[str, Dict[str, BenchResult]],
) -> List[Tuple[str, BenchResult, BenchResult]]:
    """(benchmark, without commutativity, with it), both without the
    §4.4 passes as in the paper's middle column, read off
    :func:`determinism_runs`."""
    return [
        (name, by_config["no-commutativity"], by_config["commutativity"])
        for name, by_config in runs.items()
    ]


# -- Fig. 12 -------------------------------------------------------------------


def fig12_rows() -> List[Tuple[str, float]]:
    """(benchmark, idempotence-check seconds)."""
    rows = []
    for name in BENCHMARK_NAMES:
        subject = idempotence_subject(name)
        graph, programs = _compile(subject)
        start = time.perf_counter()
        result = check_idempotence(graph, programs)
        elapsed = time.perf_counter() - start
        assert result.idempotent, f"{subject} must be idempotent"
        rows.append((name, elapsed))
    return rows


# -- Fig. 13 -------------------------------------------------------------------


def conflicting_write(path: str, content: str):
    """An overwrite-style write: last writer wins, so n of these to
    one path defeat the commutativity check and cannot be pruned."""
    p = Path.of(path)
    return ite(
        file_(p),
        seq(rm(p), creat(p, content)),
        ite(none_(p), creat(p, content), seq(rm(p), creat(p, content))),
    )


def synthetic_conflict_graph(n: int):
    """n unordered resources all writing different content to /shared
    (the paper's Fig. 13 workload, built directly in FS because Puppet
    rejects duplicate file paths)."""
    programs = {
        f"w{i}": conflicting_write("/shared", f"content-{i}")
        for i in range(n)
    }
    graph = DiGraph()
    graph.add_nodes_from(programs)
    return graph, programs


def synthetic_deterministic_graph(n: int):
    """The paper's deterministic Fig. 13 variant: a final writer
    ordered after all n conflicting writers funnels every interleaving
    into one final state, so exploration has no early exit."""
    graph, programs = synthetic_conflict_graph(n)
    programs["final"] = conflicting_write("/shared", "x")
    graph.add_node("final")
    for i in range(n):
        graph.add_edge(f"w{i}", "final")
    return graph, programs


def fig13_rows(
    ns: Sequence[int] = (2, 3, 4, 5, 6),
    timeout: float = DEFAULT_TIMEOUT,
    max_branches: int = 200_000,
) -> List[Tuple[int, BenchResult]]:
    """(n, result) for the synthetic conflicting-writes benchmark."""
    rows = []
    for n in ns:
        graph, programs = synthetic_conflict_graph(n)
        options = _options(timeout_seconds=timeout, max_branches=max_branches)
        result = _timed(f"n={n}", graph, programs, options)
        assert result.timed_out or result.deterministic is False
        rows.append((n, result))
    return rows


def fig13_lattice_bound(n: int) -> int:
    """Edge count of the Fig. 13 subset/state lattice.

    A reachable exploration state on the n-conflicting-writers
    workload is a (subset applied, last writer) pair, so a full
    memoized walk has exactly n + n(n-1)·2^(n-2) transitions — versus
    sum_k n!/(n-k)! branches for the order tree.  The deterministic
    variant (:func:`synthetic_deterministic_graph`) walks n more, one
    per last writer into the final one.  The single source of truth
    for every structural memoization guard (the pinned exploration
    rows and the unit tests).
    """
    if n < 2:
        return n
    return n + n * (n - 1) * 2 ** (n - 2)


def fig13_exploration_rows(
    ns: Sequence[int] = (2, 3, 4, 5, 6),
    timeout: float = DEFAULT_TIMEOUT,
    max_branches: int = 500_000,
) -> List[Tuple[int, BenchResult]]:
    """(n, result) for the deterministic Fig. 13 variant — the
    reachable-state-DAG exploration profile.  (The non-deterministic
    workload stops at its first diverging final, so it no longer
    profiles the lattice.)

    The order tree over n unordered conflicting writers has
    sum_k n!/(n-k)! branches; the subset/state lattice the memoized
    exploration walks has only :func:`fig13_lattice_bound` edges, plus
    n into the final writer.  Sub-factorial branch growth with nonzero
    memo hits is the structural signature ``tests/test_pinned_effort.py``
    pins (wall clock alone would also pass on a faster machine with
    broken memoization).
    """
    rows = []
    for n in ns:
        graph, programs = synthetic_deterministic_graph(n)
        options = _options(timeout_seconds=timeout, max_branches=max_branches)
        rows.append((n, _timed(f"n={n}", graph, programs, options)))
    return rows


# -- §6 verdict table -----------------------------------------------------------


def verdict_rows() -> List[Tuple[str, bool, Optional[bool]]]:
    """(benchmark, deterministic?, idempotent-of-subject?)."""
    tool = Rehearsal(options=_options())
    rows = []
    for name in BENCHMARK_NAMES:
        det = tool.check_determinism(load_source(name)).deterministic
        idem = tool.check_idempotence(
            load_source(idempotence_subject(name))
        ).idempotent
        rows.append((name, det, idem))
    return rows


# -- rendering -------------------------------------------------------------------

def fmt_seconds(s: float) -> str:
    return "timeout" if s == TIMEOUT else f"{s:8.3f}s"


def render_rows(
    title: str, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    from repro.core.report import render_table

    body = render_table(header, [[_cell(c) for c in row] for row in rows])
    return f"{title}\n{body}"


def _count(value: Optional[int]) -> str:
    return "?" if value is None else str(value)


def _cell(value: object) -> str:
    if isinstance(value, BenchResult):
        return (
            f"{fmt_seconds(value.seconds)} {value.branches_explored}b "
            f"{value.memo_hits}m {_count(value.distinct_finals)}f "
            f"{_count(value.sat_queries)}q {_count(value.sat_conflicts)}c"
        )
    if isinstance(value, float):
        return fmt_seconds(value)
    return str(value)
