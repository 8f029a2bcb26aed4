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

import pytest

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


#: Packages whose init re-exports through a ``_LAZY_EXPORTS`` table.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.sat",
    "repro.service",
    "repro.testing",
)

LAZY_PROBE = """
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
targets = set(package._LAZY_EXPORTS.values()) - {sys.argv[1]}
print(json.dumps(sorted(targets & set(sys.modules))))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_package_import_loads_none_of_its_lazy_targets(package):
    """Importing a package binds its table, not the modules it names:
    a name's defining module loads on first access, so ``import
    repro.service`` does not drag in the daemon or the process pool."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, package],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
