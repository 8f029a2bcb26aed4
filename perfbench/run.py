"""Rehearsal's benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload corpus-batch --seed 1 --seconds 20 --trace 0

Run from the checkout root.  The second-to-last line of standard output
is a JSON record of the run's circumstances and details; the last line
is ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("corpus-batch", "cli-edit", "daemon-mixed")

#: End-to-end metrics (``--trace 0``), the same five on every workload.
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict:
    from perfbench.tracing import SPAN_METRICS

    names = list(SPAN_METRICS) + [
        "store.bytes",
        "cli.interpreter_ms",
        "cli.import_ms",
        "daemon.server_verify_ms",
        "daemon.transport_ms",
        "daemon.queue_depth_max",
        "daemon.generator_lag_ms",
        "tiered.memory_hits",
        "tiered.disk_hits",
        "tiered.misses",
        "tiered.hit_ratio",
        "trace.overhead_ms",
    ]
    units = {}
    for name in names:
        if name.endswith(("_ms", ".ms")):
            units[name] = "ms"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name == "store.bytes":
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no Rehearsal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import inputs

    # Pin this process's own hash seed too (re-exec once), so in-process
    # work and solver counters repeat for a given workload seed.
    wanted = inputs.hash_seed(args.seed, "benchmark", args.workload)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        sys.stdout.flush()
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], env)

    from perfbench import daemon_mixed, util

    before = util.circumstances()
    work = util.make_workdir(args.workload)
    try:
        if args.workload == "corpus-batch":
            from perfbench import corpus_batch as workload
        elif args.workload == "cli-edit":
            from perfbench import cli_edit as workload
        else:
            workload = daemon_mixed
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        util.remove_workdir(work)

    units = layer_units() if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "benchmark_hash_seed": wanted,
        "daemon_rates_rps": {"light": daemon_mixed.LIGHT_RPS, "heavy": daemon_mixed.HEAVY_RPS},
        "git_sha": before["git_sha"],
        "source_digest": before["source_digest"],
        "python": before["python"],
        "nproc": before["nproc"],
        "loadavg_before": before["loadavg"],
        "loadavg_after": list(os.getloadavg()),
        "reference_probe_ms": util.REFERENCE_PROBE_MS,
        "probe_ms_before": before["probe_ms"],
        "probe_ms_after": util.median([util.probe_ms() for _ in range(5)]),
        "not_exercised": sorted(set(units) - set(outcome.metrics)),
        "problems": outcome.problems,
        "details": outcome.details,
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": outcome.attempted > 0 and outcome.failed == 0 and not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
