"""Verification output must not depend on the process's hash seed.

Package resources that create several directories at the same depth
once emitted their guarded mkdirs in set-iteration order, so the
compiled FS program, and with it CNF numbering, solver counters,
witnesses and incremental-store digests, changed from one process to
the next.  Two fresh interpreters with different ``PYTHONHASHSEED``
must agree on every program and every non-timing row field.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: jpa's packages create sibling directories; dns-nondet adds a race,
#: so the row carries race_pair, race_path and a witness search.
MANIFESTS = ("jpa", "dns-nondet")

PROBE = """
import json, sys
from repro.analysis.determinism import DeterminismOptions
from repro.core.pipeline import Rehearsal
from repro.corpus import load_source
from repro.fs.pretty import expr_to_str
from repro.service import BatchVerifier, normalized_rows

names = sys.argv[1:]
sources = [(name, load_source(name)) for name in names]
programs = {}
for name, source in sources:
    graph, compiled = Rehearsal().compile(source)
    programs[name] = {node: expr_to_str(compiled[node]) for node in graph}
verifier = BatchVerifier(DeterminismOptions(incremental=False), workers=1, cache=None)
rows = normalized_rows(verifier.verify_sources(sources).results)
print(json.dumps({"programs": programs, "rows": rows}, sort_keys=True))
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
    first, second = _run("1"), _run("2")
    for name in MANIFESTS:
        assert first["programs"][name] == second["programs"][name], name
    assert first["rows"] == second["rows"]
    race = next(row for row in first["rows"] if row["name"] == "dns-nondet")
    assert race["deterministic"] is False and race["race_pair"]
