"""The one-shot CLI path imports only what it runs.

A fresh ``rehearsal verify`` process pays for every module it imports
and for every dataclass those modules build (``dataclasses`` generates
and ``exec``s each method's source at import, work the bytecode cache
cannot keep).  So the verify path must not load the batch
orchestrator's process pool, the daemon's event loop, a graph library,
or the modules only a divergence or a large instance runs.  Nor may it
load the symbolic back end when elimination leaves at most one
resource.  It builds no more dataclasses than recorded here.  The checks are on
module names and a call count in a fresh interpreter, not on timings,
so they cannot flake.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the verify path must never import: the pool, the event loop
#: and the graph library, then the modules a deterministic, idempotent
#: verify never runs (race localization and witness decoding run on a
#: divergence, invariants only on request).  The batch row shares the
#: pipeline's frontend with lint; the one-shot verify never lints, so
#: neither the linter nor the concrete oracle it samples states from
#: may load.
FORBIDDEN = (
    "networkx",
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "repro.analysis.localize",
    "repro.smt.model",
    "repro.analysis.invariants",
    "repro.analysis.lint",
    "repro.testing.oracle",
)

#: The symbolic back end and the pruning passes.  They load only when
#: elimination leaves two or more resources (ntp-fixed keeps none;
#: irc-fixed keeps all 5) or when idempotence falls back to SAT, and
#: the SAT stack only when the exploration frontier branches.
SYMBOLIC = (
    "repro.logic",
    "repro.logic.terms",
    "repro.logic.cnf",
    "repro.sat",
    "repro.sat.solver",
    "repro.smt",
    "repro.smt.values",
    "repro.smt.state",
    "repro.smt.encoder",
    "repro.smt.query",
    "repro.analysis.pruning",
    "repro.analysis.definitive",
    "repro.analysis.equivalence",
    "repro.fs.domain",
)

#: Dataclasses built by ``import repro.core.cli`` plus one incremental
#: verify of ntp-fixed.pp.  The syntax trees and lattice values are
#: :class:`repro.node.Node` classes, which generate no code; raise this
#: only for a dataclass the verify path cannot do without.
MAX_DATACLASSES = 21

PROBE = """
import contextlib, dataclasses, io, json, sys
built = []
process_class = dataclasses._process_class
def counting(cls, *args, **kwargs):
    built.append(f"{cls.__module__}.{cls.__qualname__}")
    return process_class(cls, *args, **kwargs)
dataclasses._process_class = counting
import repro.core.cli as cli
from repro.corpus import manifest_dir
manifest = str(manifest_dir() / sys.argv[1])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", "--incremental", *json.loads(sys.argv[2]), manifest])
print(json.dumps({
    "code": code,
    "verdicts": "DETERMINISTIC" in out.getvalue() and "IDEMPOTENT" in out.getvalue(),
    "loaded": sorted(m for m in json.loads(sys.argv[3]) if m in sys.modules),
    "dataclasses": built,
}))
"""


def _probe(tmp_path, manifest="ntp-fixed.pp", watched=FORBIDDEN + SYMBOLIC, env=None):
    """Verify a corpus manifest in a fresh interpreter with the store
    in ``tmp_path``; report which ``watched`` modules loaded.  With
    ``env`` the store directory comes from the environment instead of
    ``--incremental-dir``."""
    flags = [] if env else ["--incremental-dir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, manifest, json.dumps(flags), json.dumps(watched)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["code"] == 0 and probe["verdicts"], probe
    return probe


def test_verify_incremental_imports_no_pool_loop_or_graph_library(tmp_path):
    assert _probe(tmp_path)["loaded"] == []


def test_verify_with_two_resources_left_loads_the_symbolic_stack(tmp_path):
    """irc-fixed keeps all 5 resources after elimination, so it is
    pruned and its value domains are built.  Its frontier never
    branches, though, so it has one order and one final state: no
    symbolic state is built and the SAT stack stays out.  Nor does
    the equivalence query load: rewriting proves idempotence."""
    loaded = set(_probe(tmp_path, "irc-fixed.pp")["loaded"])
    assert not loaded & {"repro.sat.solver", "repro.smt.query", "repro.logic.cnf"}
    assert loaded == {
        "repro.analysis.pruning",
        "repro.analysis.definitive",
        "repro.fs.domain",
        "repro.logic",
        "repro.logic.terms",
        "repro.smt",
        "repro.smt.values",
    }


def test_default_store_location_loads_no_row_schema(tmp_path):
    """Without ``--incremental-dir`` the store sits in the cache
    directory; finding it must not import the verdict cache or its
    row schema."""
    watched = FORBIDDEN + SYMBOLIC + ("repro.service.cache", "repro.service.schema")
    probe = _probe(tmp_path, watched=watched, env={"REHEARSAL_CACHE_DIR": str(tmp_path)})
    assert probe["loaded"] == []
    assert (tmp_path / "incremental.sqlite").exists()


def test_verify_incremental_builds_few_dataclasses(tmp_path):
    built = _probe(tmp_path)["dataclasses"]
    assert len(built) <= MAX_DATACLASSES, built


#: Packages whose init re-exports through a ``_LAZY_EXPORTS`` table.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.sat",
    "repro.service",
    "repro.smt",
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
