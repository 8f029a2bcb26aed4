"""Verification output must not depend on the process's hash seed.

Package resources that create several directories at the same depth
once emitted their guarded mkdirs in set-iteration order, so the
compiled FS program, and with it CNF numbering, solver counters,
witnesses and incremental-store digests, changed from one process to
the next.  Symbolic values once merged and compared their indicator
maps in set order, and file contents hash by string, so terms interned
(and CNF variables were numbered) differently per process even when
rows and witnesses agreed.  Fresh interpreters with different
``PYTHONHASHSEED`` must agree on every program, every non-timing row
field and the counters of every SAT solve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: jpa's packages create sibling directories; dns-nondet adds a race,
#: so the row carries race_pair, race_path and a witness search; monit's
#: file contents made its idempotence query's counters seed-dependent.
MANIFESTS = ("jpa", "dns-nondet", "monit")

PROBE = """
import json, sys
from repro.analysis.determinism import DeterminismOptions
from repro.core.pipeline import Rehearsal
from repro.corpus import load_source
from repro.fs.pretty import expr_to_str
from repro.sat.solver import Solver
from repro.service import BatchVerifier, normalized_rows

solves = []
solve = Solver.solve

def recording_solve(self, *args, **kwargs):
    r = solve(self, *args, **kwargs)
    solves.append((r.sat, r.conflicts, r.decisions, r.propagations, r.restarts))
    return r

Solver.solve = recording_solve

names = sys.argv[1:]
sources = [(name, load_source(name)) for name in names]
programs = {}
for name, source in sources:
    graph, compiled = Rehearsal().compile(source)
    programs[name] = {node: expr_to_str(compiled[node]) for node in graph}
verifier = BatchVerifier(DeterminismOptions(incremental=False), workers=1, cache=None)
rows = normalized_rows(verifier.verify_sources(sources).results)
print(json.dumps({"programs": programs, "rows": rows, "solves": solves}, sort_keys=True))
"""


def _run(hash_seed):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *MANIFESTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_programs_and_rows_agree_across_hash_seeds():
    first, *others = _run("1"), _run("2"), _run("3")
    for other in others:
        for name in MANIFESTS:
            assert first["programs"][name] == other["programs"][name], name
        assert first["rows"] == other["rows"]
        assert first["solves"] == other["solves"]
    assert first["solves"]
    race = next(row for row in first["rows"] if row["name"] == "dns-nondet")
    assert race["deterministic"] is False and race["race_pair"]
