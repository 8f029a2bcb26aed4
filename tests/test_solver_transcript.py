"""The corpus solve transcript is pinned exactly.

For every corpus manifest (the 13 benchmarks and their 6 fixed
variants), ``tests/data/solver-transcript.json`` holds
one entry per ``Solver.solve`` call that verifying it makes: the
answer, the solver's conflicts, decisions, propagations and restarts,
and a sha256 of the model and the unsat core.  Effort counters are the
noise-free signal of a solver change, so a change that should keep the
search (a faster data structure, say) must leave this file untouched,
and one that changes the search re-records it in the same commit:

    PYTHONPATH=src python tests/test_solver_transcript.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = ROOT / "tests" / "data" / "solver-transcript.json"

PROBE = """
import hashlib, json
from repro.analysis.determinism import DeterminismOptions
from repro.corpus import CASES, FIXED_VARIANTS, load_source
from repro.sat.solver import Solver
from repro.service import BatchVerifier

calls = []
solve = Solver.solve

def recording_solve(self, *args, **kwargs):
    r = solve(self, *args, **kwargs)
    model = sorted(v if b else -v for v, b in r.assignment.items())
    digest = hashlib.sha256(json.dumps([model, r.core]).encode()).hexdigest()
    calls.append([r.sat, r.conflicts, r.decisions, r.propagations, r.restarts, digest])
    return r

Solver.solve = recording_solve
transcript = {}
for name in sorted([*CASES, *FIXED_VARIANTS]):
    calls = []
    verifier = BatchVerifier(DeterminismOptions(incremental=False), workers=1, cache=None)
    verifier.verify_sources([(name, load_source(name))])
    transcript[name] = calls
print(json.dumps(transcript))
"""


def run_probe():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def render(transcript):
    """One manifest per key and one solve call per line."""
    blocks = []
    for name, calls in transcript.items():
        lines = ",\n".join(f"    {json.dumps(call)}" for call in calls)
        body = f"[\n{lines}\n  ]" if calls else "[]"
        blocks.append(f"  {json.dumps(name)}: {body}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_corpus_solves_match_the_pinned_transcript():
    pinned = json.loads(TRANSCRIPT.read_text())
    fresh = run_probe()
    assert sorted(fresh) == sorted(pinned)
    for name in pinned:
        assert fresh[name] == pinned[name], name


if __name__ == "__main__":
    TRANSCRIPT.write_text(render(run_probe()))
