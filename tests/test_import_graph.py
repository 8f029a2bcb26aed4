"""The one-shot CLI path imports only what it runs.

A fresh ``rehearsal verify`` process pays for every module it imports,
so the verify path must not load the batch orchestrator's process
pool, the daemon's event loop, or a graph library.  The check is on
module names in a fresh interpreter, not on timings, so it cannot
flake.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the verify path must never import.
FORBIDDEN = ("networkx", "multiprocessing", "concurrent.futures", "asyncio")

PROBE = """
import contextlib, io, json, sys
import repro.core.cli as cli
from repro.corpus import manifest_dir
manifest = str(manifest_dir() / "ntp-fixed.pp")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", "--incremental", "--incremental-dir", sys.argv[1], manifest])
print(json.dumps({
    "code": code,
    "verdicts": "DETERMINISTIC" in out.getvalue() and "IDEMPOTENT" in out.getvalue(),
    "loaded": sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules),
}))
"""


def test_verify_incremental_imports_no_pool_loop_or_graph_library(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), json.dumps(FORBIDDEN)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["code"] == 0 and probe["verdicts"], probe
    assert probe["loaded"] == [], probe
