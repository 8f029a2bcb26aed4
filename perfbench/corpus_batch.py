"""``corpus-batch``: the paper's §6 workload, one closed-loop caller.

Every pass verifies all 19 corpus manifests, one ``verify_sources``
call each, in a seed-shuffled order through ``BatchVerifier(workers=1,
cache=None)`` with the incremental store off.  Only whole passes are
measured, so every run weighs every manifest equally.
"""

from __future__ import annotations

import sys
import time
from statistics import mean
from pathlib import Path
from typing import List

from perfbench import inputs, tracing
from perfbench.util import (
    SETUP_PROBES, Outcome, child_env, median, percentile, pin_to_one_cpu, probe_ms, probe_on,
    run_child, self_rss_mb, time_scale,
)

#: Per pass of 19 manifests: the 90th percentile interpolates between
#: the second- and third-slowest manifest.
TAIL = 90.0
SETUPS = 3

#: What a fresh verifier process does before its first timed verdict.
SETUP_SNIPPET = """
from repro.analysis.determinism import DeterminismOptions
from repro.corpus import load_source
from repro.service.orchestrator import BatchVerifier
from perfbench.inputs import CORPUS
sources = {name: load_source(name) for name in CORPUS}
verifier = BatchVerifier(DeterminismOptions(incremental=False), workers=1, cache=None)
verifier.verify_sources([("dns-nondet", sources["dns-nondet"])])
"""


def _one_pass(verifier, sources, seed, index, outcome, tracer=None, probes=None):
    """Pass ``index`` over the corpus; returns its per-manifest wall
    milliseconds.  With ``probes``, a speed probe runs before each
    manifest and its time is appended there."""
    latencies = []
    for name in inputs.corpus_order(seed, index):
        if tracer is not None:
            tracer.set_request(f"pass{index}/{name}")
        if probes is not None:
            probes.append(probe_ms())
        start = time.perf_counter()
        row = verifier.verify_sources([(name, sources[name])]).results[0]
        latencies.append((time.perf_counter() - start) * 1000.0)
        outcome.attempted += 1
        problem = inputs.verdict_error(name, row.to_dict())
        if problem:
            outcome.fail(problem)
    return latencies


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    setups = []
    hash_seeds = [inputs.hash_seed(seed, "corpus-setup", index) for index in range(SETUPS)]
    pin_to_one_cpu()
    for index in range(SETUPS):
        env = child_env(hash_seeds[index], work, traced=True)
        before = probe_on(None, SETUP_PROBES)
        result = run_child(
            [sys.executable, "-c", SETUP_SNIPPET], env, work / f"setup{index}.out"
        )
        if result.returncode != 0:
            outcome.problems.append(f"setup process exited {result.returncode}: {result.stdout[-500:]}")
        setups.append(result.seconds * time_scale(before + probe_on(None, SETUP_PROBES)))

    from repro.analysis.determinism import DeterminismOptions
    from repro.corpus import load_source
    from repro.service.orchestrator import BatchVerifier

    sources = {name: load_source(name) for name in inputs.CORPUS}
    verifier = BatchVerifier(DeterminismOptions(incremental=False), workers=1, cache=None)
    # Warm-up pass (not measured): lazy imports and first-call costs.
    for name in inputs.CORPUS:
        row = verifier.verify_sources([(name, sources[name])]).results[0]
        problem = inputs.verdict_error(name, row.to_dict())
        if problem:
            outcome.problems.append(f"warm-up: {problem}")

    start = time.perf_counter()
    if not trace:
        passes = []
        probes: List[float] = []
        while time.perf_counter() < start + seconds:
            pass_probes: List[float] = []
            latencies = _one_pass(verifier, sources, seed, len(passes), outcome, probes=pass_probes)
            scale = time_scale(pass_probes)
            passes.append([ms * scale for ms in latencies])
            probes += pass_probes
        # Each pass is the same work, timed at reference speed, so the
        # median over passes shrugs off the seconds in which the
        # machine ran slow.
        outcome.metrics = {
            "setup_s": median(setups),
            "verdicts_per_s": median([1000.0 * len(lat) / sum(lat) for lat in passes]),
            "verdict_p50_ms": median([median(lat) for lat in passes]),
            "verdict_tail_ms": median([percentile(lat, TAIL) for lat in passes]),
            "peak_rss_mb": self_rss_mb(),
        }
        outcome.details = {
            "passes": len(passes),
            "samples": sum(len(lat) for lat in passes),
            "probe_ms_median": median(probes),
            "tail_percentile": TAIL,
            "setup_runs_s": setups,
            "setup_hash_seeds": hash_seeds,
        }
        return outcome

    # Traced and untraced passes alternate, so both see the same
    # machine and the difference is the tracing overhead.
    tracer = tracing.Tracer()
    plain: List[float] = []
    traced: List[float] = []
    index = 0
    while time.perf_counter() < start + seconds or index < 2:
        if index % 2:
            restore = tracing.install(tracer)
            try:
                traced += _one_pass(verifier, sources, seed, index, outcome, tracer)
            finally:
                restore()
        else:
            plain += _one_pass(verifier, sources, seed, index, outcome)
        index += 1
    outcome.metrics = tracing.layer_metrics(tracer.spans, len(traced))
    outcome.metrics["trace.overhead_ms"] = mean(traced) - mean(plain)
    outcome.details = {
        "untraced_samples": len(plain),
        "traced_samples": len(traced),
        "untraced_mean_ms": mean(plain),
        "traced_mean_ms": mean(traced),
        "spans": len(tracer.spans),
    }
    return outcome
