"""``cli-edit``: the developer edit loop, one closed-loop caller.

Each step is a fresh ``python -m repro.core.cli verify --incremental``
process on a one-resource content edit of a deterministic corpus
manifest, against one store that set-up filled with every edit base.
Every process gets its own ``PYTHONHASHSEED`` derived from the
workload seed, as separate developer invocations would.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from statistics import mean
from typing import List, Optional, Tuple

from perfbench import inputs, tracing
from perfbench.util import (
    CLI, SETUP_PROBES, Outcome, child_env, median, percentile, pin_to_one_cpu, probe_ms, probe_on,
    run_child, time_scale,
)

#: Per deck cycle of 13 steps: the 75th percentile is the
#: fourth-slowest step.
TAIL = 75.0
SETUPS = 3
#: Start-up probes per per-layer start-time figure.
START_PROBES = 3
#: More edits than any run can use.
MAX_STEPS = 1000

STORE_FILE = "incremental.sqlite"


def verdict_error(base: str, stdout: str, returncode: int) -> Optional[str]:
    """Every edit base is deterministic and idempotent; the CLI says so
    with exit code 0 and both verdict lines."""
    if returncode != 0:
        return f"edit of {base}: exit code {returncode}: {stdout[-300:]!r}"
    if "\nDETERMINISTIC:" not in stdout or "\nIDEMPOTENT:" not in stdout:
        return f"edit of {base}: verdict lines missing: {stdout[-300:]!r}"
    return None


def fill_hash_seed(seed: int, index: int) -> str:
    return inputs.hash_seed(seed, "cli-fill", index)


def fill_store(seed: int, index: int, work: Path, outcome: Outcome) -> Tuple[Path, float]:
    """Verify every edit base into a fresh store; returns its
    directory and the seconds the fill took."""
    from repro.corpus import manifest_dir

    store = work / f"store{index}"
    bases = [str(Path(str(manifest_dir())) / f"{name}.pp") for name in inputs.EDIT_BASES]
    argv = CLI + [
        "verify-batch", "--incremental", "--incremental-dir", str(store),
        "--no-cache", "--strict", *bases,
    ]
    env = child_env(fill_hash_seed(seed, index), work)
    result = run_child(argv, env, work / f"fill{index}.out")
    if result.returncode != 0:
        outcome.problems.append(f"store fill exited {result.returncode}: {result.stdout[-500:]}")
    return store, result.seconds


def _bare_start_ms(seed: int, work: Path, code: str) -> float:
    env = child_env(inputs.hash_seed(seed, "bare-start", code), work)
    return median(
        [run_child([sys.executable, "-c", code], env, work / "bare.out").seconds * 1000.0
         for _ in range(START_PROBES)]
    )


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    setups: List[float] = []
    pin_to_one_cpu()
    for index in range(SETUPS):
        before = probe_on(None, SETUP_PROBES)
        store, spent = fill_store(seed, index, work, outcome)
        setups.append(spent * time_scale(before + probe_on(None, SETUP_PROBES)))

    edits = inputs.edit_script(seed, "cli", MAX_STEPS)
    probes: List[float] = []
    latencies: List[float] = []
    traced_latencies: List[float] = []
    rss: List[float] = []
    hash_seeds: List[str] = []
    span_files: List[Path] = []
    start = time.perf_counter()
    step = 0
    while (time.perf_counter() < start + seconds or step < 2) and step < MAX_STEPS:
        edit = edits[step]
        manifest = work / f"edit{step}.pp"
        manifest.write_text(edit.source, encoding="utf8")
        hash_seeds.append(inputs.hash_seed(seed, "cli-step", step))
        args = ["verify", "--incremental", "--incremental-dir", str(store), str(manifest)]
        # In a traced run, traced and untraced steps alternate.
        traced_step = trace and step % 2 == 1
        if traced_step:
            spans = work / f"spans{step}.json"
            span_files.append(spans)
            argv = [sys.executable, "-m", "perfbench.traced_child", str(spans)] + args
            env = child_env(hash_seeds[-1], work, traced=True, PERFBENCH_REQUEST=f"step{step}")
        else:
            argv = CLI + args
            env = child_env(hash_seeds[-1], work)
            probes.append(probe_ms())
        result = run_child(argv, env, work / "step.out")
        (traced_latencies if traced_step else latencies).append(result.seconds * 1000.0)
        rss.append(result.max_rss_mb)
        outcome.attempted += 1
        problem = verdict_error(edit.base, result.stdout, result.returncode)
        if problem:
            outcome.fail(problem)
        manifest.unlink()
        step += 1

    outcome.details = {
        "steps": step,
        "setup_runs_s": setups,
        "fill_hash_seeds": [fill_hash_seed(seed, index) for index in range(SETUPS)],
        "step_hash_seeds": hash_seeds,
        "bases": sorted({edits[i].base for i in range(step)}),
    }
    if not trace:
        # One deck cycle edits every base once, so cycles are the same
        # work; timed at reference speed, the median over complete
        # cycles shrugs off the seconds in which the machine ran slow.
        cycle = len(inputs.EDIT_BASES)
        starts = range(0, len(latencies) - cycle + 1, cycle) if len(latencies) >= cycle else [0]
        cycles = []
        for i in starts:
            scale = time_scale(probes[i:i + cycle])
            cycles.append([ms * scale for ms in latencies[i:i + cycle]])
        outcome.metrics = {
            "setup_s": median(setups),
            "verdicts_per_s": median([1000.0 * len(c) / sum(c) for c in cycles]),
            "verdict_p50_ms": median([median(c) for c in cycles]),
            "verdict_tail_ms": median([percentile(c, TAIL) for c in cycles]),
            "peak_rss_mb": max(rss),
        }
        outcome.details.update(tail_percentile=TAIL, cycles=len(cycles), probe_ms_median=median(probes))
        return outcome

    spans = [span for path in span_files if path.exists() for span in tracing.read_spans(path)]
    outcome.metrics = tracing.layer_metrics(spans, len(traced_latencies))
    interpreter = _bare_start_ms(seed, work, "pass")
    outcome.metrics.update({
        "store.bytes": (store / STORE_FILE).stat().st_size,
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": _bare_start_ms(seed, work, "import repro.core.cli") - interpreter,
        "trace.overhead_ms": mean(traced_latencies) - mean(latencies),
    })
    outcome.details.update({
        "untraced_samples": len(latencies),
        "traced_samples": len(traced_latencies),
        "untraced_mean_ms": mean(latencies),
        "traced_mean_ms": mean(traced_latencies),
    })
    return outcome
