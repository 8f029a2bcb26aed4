"""Benchmark harness regenerating every figure of the paper's §6.

The figure-to-configuration mapping follows the paper's experimental
setup:

* **Fig. 11a** — modeled (stateful) paths per benchmark, with and
  without pruning.
* **Fig. 11b** — determinacy-analysis time with commutativity checking
  on, toggling *pruning* (the paper's Fig. 11b caption covers both
  §4.4 passes: resource elimination and file pruning — they toggle
  together here).
* **Fig. 11c** — determinacy-analysis time without the §4.4 passes,
  toggling the *commutativity* reduction; without it several
  benchmarks exceed the time budget, reproducing the paper's timeouts.
* **Fig. 12** — idempotence-check time per benchmark (fixed variants
  stand in for the non-deterministic six, per §5).
* **Fig. 13** — determinacy-analysis time against n unordered,
  mutually conflicting file writes: the commutativity check is useless
  by construction, so the order space is the full n!.  The first two
  finals already diverge, so eager first-divergence racing stops
  there.  The deterministic variant (a final writer after all n) must
  walk everything; the reachable-state memoization collapses that
  walk to the subset/state lattice (n + n(n-1)·2^(n-2) edges plus n
  into the final writer — see ``fig13_exploration_rows``), so the
  curve is exponential rather than factorial; the paper's factorial
  blow-up is still reproducible with
  ``DeterminismOptions(use_memoization=False)``.

Absolute numbers differ from the paper (different machine, a pure
Python CDCL solver instead of Z3); the *shapes* are the reproduction
target.  See EXPERIMENTS.md.
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


@dataclass
class BenchResult:
    name: str
    seconds: float  # TIMEOUT when the budget was exhausted
    deterministic: Optional[bool] = None
    detail: Dict[str, float] = None  # type: ignore[assignment]

    @property
    def timed_out(self) -> bool:
        return self.seconds == TIMEOUT


def _compile(name: str):
    tool = Rehearsal()
    return tool.compile(load_source(name))


def timed_determinism(
    name: str,
    use_commutativity: bool,
    use_pruning: bool,
    timeout: float = DEFAULT_TIMEOUT,
    max_branches: int = DEFAULT_MAX_BRANCHES,
) -> BenchResult:
    """One determinacy run under a configuration; budget-aware."""
    graph, programs = _compile(name)
    options = DeterminismOptions(
        use_commutativity=use_commutativity,
        use_pruning=use_pruning,
        use_elimination=use_pruning,  # §4.4 passes toggle together
        timeout_seconds=timeout,
        max_branches=max_branches,
    )
    start = time.perf_counter()
    try:
        result = check_determinism(graph, programs, options)
    except AnalysisBudgetExceeded:
        return BenchResult(name, TIMEOUT)
    return BenchResult(
        name,
        time.perf_counter() - start,
        deterministic=result.deterministic,
    )


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


def fig11b_rows(
    timeout: float = DEFAULT_TIMEOUT,
    names: Sequence[str] = tuple(BENCHMARK_NAMES),
) -> List[Tuple[str, float, float]]:
    """(benchmark, seconds without pruning, seconds with pruning)."""
    rows = []
    for name in names:
        off = timed_determinism(
            name, use_commutativity=True, use_pruning=False, timeout=timeout
        )
        on = timed_determinism(
            name, use_commutativity=True, use_pruning=True, timeout=timeout
        )
        rows.append((name, off.seconds, on.seconds))
    return rows


def fig11c_rows(
    timeout: float = DEFAULT_TIMEOUT,
    names: Sequence[str] = tuple(BENCHMARK_NAMES),
) -> List[Tuple[str, float, float]]:
    """(benchmark, seconds without commutativity, with commutativity);
    both without the §4.4 passes, as in the paper's middle column."""
    rows = []
    for name in names:
        off = timed_determinism(
            name, use_commutativity=False, use_pruning=False, timeout=timeout
        )
        on = timed_determinism(
            name, use_commutativity=True, use_pruning=False, timeout=timeout
        )
        rows.append((name, off.seconds, on.seconds))
    return rows


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
) -> List[Tuple[int, float]]:
    """(n, seconds) for the synthetic conflicting-writes benchmark."""
    rows = []
    for n in ns:
        graph, programs = synthetic_conflict_graph(n)
        options = DeterminismOptions(
            timeout_seconds=timeout, max_branches=max_branches
        )
        start = time.perf_counter()
        try:
            result = check_determinism(graph, programs, options)
            assert not result.deterministic
            rows.append((n, time.perf_counter() - start))
        except AnalysisBudgetExceeded:
            rows.append((n, TIMEOUT))
    return rows


def fig13_lattice_bound(n: int) -> int:
    """Edge count of the Fig. 13 subset/state lattice.

    A reachable exploration state on the n-conflicting-writers
    workload is a (subset applied, last writer) pair, so a full
    memoized walk has exactly n + n(n-1)·2^(n-2) transitions — versus
    sum_k n!/(n-k)! branches for the order tree.  The deterministic
    variant (:func:`synthetic_deterministic_graph`) walks n more, one
    per last writer into the final one.  The single source of truth
    for every structural memoization guard (bench asserts,
    ``tools/check_branch_budget.py``, unit tests).
    """
    if n < 2:
        return n
    return n + n * (n - 1) * 2 ** (n - 2)


def fig13_exploration_rows(
    ns: Sequence[int] = (2, 3, 4, 5, 6),
    timeout: float = DEFAULT_TIMEOUT,
    max_branches: int = 500_000,
) -> List[Tuple[int, int, int, int, float]]:
    """(n, branches, memo hits, distinct finals, seconds) for the
    deterministic Fig. 13 variant — the reachable-state-DAG
    exploration profile.  (The non-deterministic workload stops at its
    first diverging final, so it no longer profiles the lattice.)

    The order tree over n unordered conflicting writers has
    sum_k n!/(n-k)! branches; the subset/state lattice the memoized
    exploration walks has only n + n(n-1)·2^(n-2) edges (a state is a
    (subset applied, last writer) pair), plus n into the final writer.
    Sub-factorial branch growth with nonzero memo hits is the
    structural signature the bench-regression job guards (wall clock
    alone would also pass on a faster machine with broken
    memoization).
    """
    rows: List[Tuple[int, int, int, int, float]] = []
    for n in ns:
        graph, programs = synthetic_deterministic_graph(n)
        options = DeterminismOptions(
            timeout_seconds=timeout, max_branches=max_branches
        )
        start = time.perf_counter()
        try:
            result = check_determinism(graph, programs, options)
        except AnalysisBudgetExceeded as exc:
            rows.append(
                (n, exc.branches, exc.memo_hits, -1, TIMEOUT)
            )
            continue
        stats = result.stats
        rows.append(
            (
                n,
                stats.branches_explored,
                stats.memo_hits,
                stats.distinct_finals,
                time.perf_counter() - start,
            )
        )
    return rows


def fig13_deterministic_rows(
    ns: Sequence[int] = (2, 3, 4),
    timeout: float = DEFAULT_TIMEOUT,
    max_branches: int = 200_000,
) -> List[Tuple[int, float]]:
    """The paper's harder variant: a final file resource ordered after
    all n conflicting writers makes the manifest deterministic, forcing
    a full unsatisfiability proof instead of an early model."""
    rows = []
    for n in ns:
        graph, programs = synthetic_deterministic_graph(n)
        options = DeterminismOptions(
            timeout_seconds=timeout, max_branches=max_branches
        )
        start = time.perf_counter()
        try:
            result = check_determinism(graph, programs, options)
            assert result.deterministic
            rows.append((n, time.perf_counter() - start))
        except AnalysisBudgetExceeded:
            rows.append((n, TIMEOUT))
    return rows


# -- full-corpus determinacy (the bench-regression headline figure) -----------


def corpus_determinism_rows(
    names: Sequence[str] = tuple(BENCHMARK_NAMES),
) -> List[Tuple[str, float]]:
    """(benchmark, determinacy seconds) under the production
    configuration (every §4 optimization on), ending with a TOTAL row.

    This is the number the incremental-solving work optimizes: all
    order-pair queries of one manifest share a single solver instance
    with per-pair selector variables, and non-deterministic verdicts
    additionally pay for unsat-core race localization.  The
    ``bench-regression`` CI job tracks it against
    ``benchmarks/baseline.json``.
    """
    rows: List[Tuple[str, float]] = []
    total = 0.0
    for name in names:
        graph, programs = _compile(name)
        start = time.perf_counter()
        check_determinism(graph, programs, DeterminismOptions())
        elapsed = time.perf_counter() - start
        total += elapsed
        rows.append((name, elapsed))
    rows.append(("TOTAL", total))
    return rows


# -- batch throughput (beyond the paper: the repro.service figure) ------------


def batch_throughput_rows(
    worker_counts: Sequence[int] = (1, 2, 4),
    names: Sequence[str] = tuple(BENCHMARK_NAMES),
) -> List[Tuple[int, float, float]]:
    """(workers, wall seconds, speedup vs. 1 worker) verifying the
    corpus through :class:`repro.service.BatchVerifier`, cache off.

    The 1-worker row runs serially in-process; parallel rows pay fork +
    IPC overhead, so on a single-core machine they come out ≥ 1×
    *slower* — the figure reports whatever the hardware gives.
    """
    from repro.service import BatchVerifier

    sources = [(name, load_source(name)) for name in names]
    timings: List[Tuple[int, float]] = []
    for workers in worker_counts:
        verifier = BatchVerifier(workers=workers, cache=None)
        start = time.perf_counter()
        verifier.verify_sources(sources)
        timings.append((workers, time.perf_counter() - start))
    baseline = next(
        (seconds for workers, seconds in timings if workers == 1),
        timings[0][1],
    )
    return [
        (workers, seconds, baseline / seconds)
        for workers, seconds in timings
    ]


def batch_cache_rows(
    names: Sequence[str] = tuple(BENCHMARK_NAMES),
) -> List[Tuple[str, float, float]]:
    """(run, wall seconds, solver seconds) for a cold then warm batch
    run over the corpus — the verdict-cache effect in one table."""
    import tempfile

    from repro.service import BatchVerifier, VerdictCache

    sources = [(name, load_source(name)) for name in names]
    rows = []
    with tempfile.TemporaryDirectory(prefix="rehearsal-bench-") as directory:
        for run in ("cold", "warm"):
            verifier = BatchVerifier(cache=VerdictCache(directory))
            start = time.perf_counter()
            report = verifier.verify_sources(sources)
            rows.append(
                (run, time.perf_counter() - start, report.solver_seconds)
            )
    return rows


# -- edit latency (incremental store) ----------------------------------------


def edit_latency_catalog(resources: int = 50, edited: bool = False) -> str:
    """A deterministic ``resources``-file catalog for the edit-latency
    figure: disjoint paths (every pair commutes), so elimination leaves
    at most one resource and the verification cost is dominated by the
    idempotence check.  ``edited`` changes one resource's content,
    simulating the developer loop of touching one resource in a large
    catalog."""
    blocks = []
    for i in range(resources):
        content = f"setting{i} = {i}"
        if edited and i == resources // 2:
            content = f"setting{i} = {i} # edited"
        blocks.append(
            f"file {{ '/etc/app/conf{i:03d}.cfg':\n"
            f"  ensure  => file,\n"
            f"  content => '{content}',\n"
            f"}}"
        )
    return "\n\n".join(blocks) + "\n"


def warm_reverify_rows(
    resources: int = 50,
) -> List[Tuple[str, float, str]]:
    """(run, wall seconds, verdict) for the edit-latency figure: verify
    a ``resources``-file catalog from scratch, then with a cold
    incremental store, then re-verify a one-resource edit against the
    now-hot store.  The store keeps only whole results of an unchanged
    catalog, and the edit changes the catalog's idempotence key, so the
    warm row is a from-scratch verify plus one store miss and one
    write: it measures the store's overhead on an edit, not a saving."""
    import tempfile

    from repro.service.incremental import reset_store_registry

    base = edit_latency_catalog(resources)
    edited = edit_latency_catalog(resources, edited=True)
    rows = []
    with tempfile.TemporaryDirectory(prefix="rehearsal-bench-") as directory:
        runs = (
            ("scratch", base, DeterminismOptions(incremental=False)),
            (
                "cold-store",
                base,
                DeterminismOptions(
                    incremental=True, incremental_dir=directory
                ),
            ),
            (
                "warm-edit",
                edited,
                DeterminismOptions(
                    incremental=True, incremental_dir=directory
                ),
            ),
        )
        try:
            for run, source, options in runs:
                tool = Rehearsal(options=options)
                start = time.perf_counter()
                report = tool.verify(source, name=f"edit-latency-{run}")
                verdict = (
                    "ok"
                    if report.ok
                    else (report.error or "FAILED")
                )
                rows.append((run, time.perf_counter() - start, verdict))
        finally:
            reset_store_registry()
    return rows


def daemon_latency_rows(
    resources: int = 12, samples: int = 5
) -> List[Tuple[str, float, str]]:
    """(run, wall seconds, note) for the daemon-latency figure: the
    warm one-resource re-verify of :func:`warm_reverify_rows`, measured
    in-process and then as a full HTTP round trip through ``rehearsal
    serve``.  Both paths share one hot incremental store (the daemon
    pins its handle open for the process lifetime), so the delta is
    pure service overhead — HTTP parse, executor hop, JSON encode.
    Best-of-``samples`` on each side; each sample edits the catalog
    differently so no verify is answered from a cache."""
    import json as json_mod
    import tempfile
    import urllib.request

    from repro.service.daemon import DaemonConfig, daemon_in_thread
    from repro.service.incremental import reset_store_registry

    base = edit_latency_catalog(resources)

    def variant(tag: str) -> str:
        # content for resource 0 is unique to that block, so this
        # rewrites exactly one resource per sample.
        return base.replace("setting0 = 0", f"setting0 = {tag}")

    rows = []
    with tempfile.TemporaryDirectory(prefix="rehearsal-bench-") as directory:
        options = DeterminismOptions(
            incremental=True, incremental_dir=directory
        )
        try:
            # Fill the store once; both measured paths then re-verify
            # one-resource edits against it.
            Rehearsal(options=options).verify(base, name="daemon-latency-warm")

            local_best = float("inf")
            for k in range(samples):
                tool = Rehearsal(options=options)
                source = variant(f"local{k}")
                start = time.perf_counter()
                tool.verify(source, name="daemon-latency-local")
                local_best = min(local_best, time.perf_counter() - start)
            rows.append(("in-process", local_best, "warm one-edit re-verify"))

            config = DaemonConfig(
                port=0, workers=1, use_cache=False, options=options
            )
            with daemon_in_thread(config) as daemon:
                daemon_best = float("inf")
                for k in range(samples):
                    payload = json_mod.dumps(
                        {
                            "source": variant(f"daemon{k}"),
                            "name": "daemon-latency-daemon",
                        }
                    ).encode("utf8")
                    request = urllib.request.Request(
                        daemon.base_url + "/v1/verify",
                        data=payload,
                        headers={"Content-Type": "application/json"},
                        method="POST",
                    )
                    start = time.perf_counter()
                    with urllib.request.urlopen(request, timeout=120) as rsp:
                        json_mod.load(rsp)
                    daemon_best = min(
                        daemon_best, time.perf_counter() - start
                    )
            ratio = daemon_best / local_best if local_best > 0 else 0.0
            rows.append(
                ("daemon", daemon_best, f"{ratio:.2f}x in-process")
            )
        finally:
            reset_store_registry()
    return rows


# -- §6 verdict table -----------------------------------------------------------


def verdict_rows() -> List[Tuple[str, bool, Optional[bool]]]:
    """(benchmark, deterministic?, idempotent-of-subject?)."""
    tool = Rehearsal()
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


def _cell(value: object) -> str:
    if isinstance(value, float):
        return fmt_seconds(value)
    return str(value)
