"""The module layering, declared once and checked on the import graph.

Rehearsal is a pipeline of stages: Puppet → resource graph → FS
programs → SMT/SAT (paper §3–§4).  This file declares in one place
which package may import which (:data:`LAYERS`, with each import that
crosses them named in :data:`CROSSINGS`), which modules a
``rehearsal`` process imports only inside the function that runs
them (:data:`LOAD_ON_USE`), and which packages re-export names lazily
(:data:`LAZY_REEXPORTS`).

The checks run on a static graph of every ``import`` statement under
``src/repro``, parsed with :mod:`ast` into a
:class:`repro.digraph.DiGraph`, so they need no fresh interpreter.
Three probes do run one, because the static graph cannot see which
function a run reaches: ntp-fixed (nothing beyond the store loads),
irc-fixed (the value domains load, the SAT stack does not) and lint.
A fresh ``rehearsal verify`` also pays for every dataclass its imports
build (``dataclasses`` generates and ``exec``s each method's source at
import, work the bytecode cache cannot keep), so the ntp-fixed probe
counts those.  All checks are on names and counts, not timings, so
they cannot flake.  ``docs/architecture.md`` prints the load table and
the lazy-package list; :func:`test_architecture_doc_matches_the_declaration`
holds it to this file.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.digraph import DiGraph, descendants

SRC = Path(__file__).resolve().parents[1] / "src"
ARCHITECTURE = SRC.parent / "docs" / "architecture.md"
MANIFESTS = SRC / "repro" / "corpus" / "manifests"

#: The packages bottom-up, one tuple per layer.  A module may import
#: its own package and any package of a lower layer; packages of one
#: layer do not import each other.  ``repro`` itself is at the bottom:
#: its module level binds ``__version__`` and the lazy-export hooks
#: and imports nothing from ``repro``.
LAYERS = (
    ("repro", "repro.errors", "repro.node", "repro.digraph"),
    ("repro.fs", "repro.logic", "repro.sat", "repro.corpus"),
    ("repro.resources", "repro.smt"),
    ("repro.puppet",),
    ("repro.analysis",),
    ("repro.service", "repro.testing"),
    ("repro.core",),
)

#: Imports that go up a layer: (importer, imported) -> (where, reason).
#: ``"function"`` permits the import only inside a function.
CROSSINGS = {
    ("repro.analysis.lint.rules.idempotence", "repro.testing.oracle"): (
        "module",
        "REH011 samples initial states from the oracle's state family",
    ),
    ("repro.analysis.lint.rules.races", "repro.testing.oracle"): (
        "module",
        "REH005 confirms a race on the oracle's state family",
    ),
    ("repro.analysis.lint.engine", "repro.core.pipeline"): (
        "module",
        "lint builds, or is handed, the pipeline's frontend",
    ),
    ("repro.service.schema", "repro.core.pipeline"): (
        "module",
        "a verdict row is built from a VerificationReport",
    ),
    ("repro.service.orchestrator", "repro.core.pipeline"): (
        "function",
        "each batch worker runs a Rehearsal",
    ),
    ("repro.testing.differential", "repro.core.pipeline"): (
        "module",
        "the fuzz driver runs the real pipeline against the oracle",
    ),
    ("repro.analysis.determinism", "repro.service.incremental"): (
        "function",
        "the persistent store is opened only with --incremental",
    ),
}

#: What a ``rehearsal`` process loads on use, beyond the CLI, the
#: frontend and the incremental store, by path: (when, modules, the
#: runtime probe that checks the row or ``None``).  Every module named
#: here is imported only inside the function that runs it, so none may
#: be in the module-level import closure of ``repro.core.cli``.  The
#: rows are disjoint; a path loads the union of the rows it reaches.
#: A probe's process loads exactly its row's modules of all those
#: named here.  ``name.*`` stands for a package and all its modules.
LOAD_ON_USE = (
    (
        "at most one resource left after elimination, idempotence "
        "proved by rewriting (ntp-fixed)",
        (),
        "ntp-fixed",
    ),
    (
        "two or more resources left, the frontier never branches "
        "(irc-fixed)",
        (
            "repro.analysis.pruning",
            "repro.analysis.definitive",
            "repro.fs.domain",
            "repro.logic",
            "repro.logic.terms",
            "repro.smt",
            "repro.smt.values",
        ),
        "irc-fixed",
    ),
    (
        "the frontier branches",
        (
            "repro.logic.cnf",
            "repro.smt.state",
            "repro.smt.encoder",
            "repro.smt.query",
            "repro.sat",
            "repro.sat.solver",
        ),
        None,
    ),
    (
        "idempotence falls back to SAT",
        ("repro.analysis.equivalence",),
        None,
    ),
    (
        "a divergence",
        ("repro.analysis.localize", "repro.smt.model"),
        None,
    ),
    (
        "an invariant check",
        ("repro.analysis.invariants",),
        None,
    ),
    (
        "`rehearsal lint` (ntp-fixed)",
        ("repro.analysis.lint.*", "repro.analysis.audit", "repro.testing.oracle"),
        "lint",
    ),
    (
        "`verify-batch` and `serve`",
        (
            "repro.service.orchestrator",
            "repro.service.cache",
            "repro.service.schema",
            "repro.service.tiered",
            "repro.service.daemon",
            "concurrent.futures",
            "multiprocessing",
            "asyncio",
        ),
        None,
    ),
    (
        "only the tests",
        ("repro.sat.brute", "networkx"),
        None,
    ),
)

#: Packages whose ``__init__`` re-exports names through a
#: ``_LAZY_EXPORTS`` table: a name's defining module loads on first
#: access, so none may load with the package.
LAZY_REEXPORTS = ("repro", "repro.analysis", "repro.service", "repro.testing")

#: Dataclasses built by ``import repro.core.cli`` plus one incremental
#: verify of ntp-fixed.pp.  The syntax trees and lattice values are
#: :class:`repro.node.Node` classes, which generate no code; raise this
#: only for a dataclass the verify path cannot do without.
MAX_DATACLASSES = 21


# -- the static import graph -------------------------------------------------


@functools.lru_cache(maxsize=None)
def source_modules():
    """Module name -> (file, is a package) for every module in src/repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (path, is_package)
    return modules


def _import_statements(nodes, where="module"):
    """Yield (statement, where) for each import under ``nodes``: where
    is ``"module"`` (it runs on import), ``"function"`` (inside a def)
    or ``"typing"`` (under ``if TYPE_CHECKING:``)."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, where
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _import_statements(node.body, "function")
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _import_statements(node.body, "typing" if where == "module" else where)
            yield from _import_statements(node.orelse, where)
        else:
            yield from _import_statements(ast.iter_child_nodes(node), where)


def _targets(statement, known):
    """The modules an import statement names: ``from a import b`` names
    ``a``, and ``a.b`` too when that is a module of ``known``."""
    if isinstance(statement, ast.Import):
        return [alias.name for alias in statement.names]
    base = statement.module or ""
    assert not statement.level, "src/repro uses absolute imports only"
    return [base] + [
        f"{base}.{alias.name}" for alias in statement.names if f"{base}.{alias.name}" in known
    ]


@functools.lru_cache(maxsize=None)
def import_graphs():
    """Two graphs over module names, stdlib and third-party modules
    included: ``imports`` has an edge for every import statement,
    wherever it sits; ``loads`` has the edges that run when a module
    is imported (its module-level imports and its parent package)."""
    known = source_modules()
    imports, loads = DiGraph(), DiGraph()
    for name, (path, _) in known.items():
        imports.add_node(name)
        loads.add_node(name)
        for statement, where in _import_statements(ast.parse(path.read_text()).body):
            for target in _targets(statement, known):
                imports.add_edge(name, target)
                if where == "module":
                    loads.add_edge(name, target)
    for name in list(loads):
        if "." in name:
            loads.add_edge(name, name.rsplit(".", 1)[0])
    return imports, loads


def package_of(module):
    """The layer unit of a module: ``repro`` or ``repro.<first part>``."""
    return ".".join(module.split(".")[:2])


def expand(names):
    """Declared names as modules: ``name.*`` becomes the package and
    every module under it."""
    out = []
    for name in names:
        if name.endswith(".*"):
            package = name[:-2]
            out += [m for m in source_modules() if m == package or m.startswith(package + ".")]
        else:
            out.append(name)
    return out


def load_on_use():
    return {module for _, names, _ in LOAD_ON_USE for module in expand(names)}


def verify_closure():
    """Every module ``import repro.core.cli`` loads, statically."""
    _, loads = import_graphs()
    return descendants(loads, "repro.core.cli") | {"repro.core.cli"}


def lazy_table(package):
    """The ``_LAZY_EXPORTS`` dict a package's ``__init__`` assigns, or
    ``None``."""
    path, _ = source_modules()[package]
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_LAZY_EXPORTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


# -- the static checks -------------------------------------------------------


def test_every_package_has_a_layer():
    declared = [package for layer in LAYERS for package in layer]
    assert len(declared) == len(set(declared))
    assert set(declared) == {package_of(m) for m in source_modules()}


def test_imports_follow_the_layers():
    """An import goes down a layer, stays in its package, or is a
    declared crossing at the level the declaration allows."""
    rank = {package: i for i, layer in enumerate(LAYERS) for package in layer}
    imports, loads = import_graphs()
    wrong = []
    for importer, imported in imports.edges:
        if not imported.startswith("repro"):
            continue
        here, there = package_of(importer), package_of(imported)
        if here == there or rank[there] < rank[here]:
            continue
        where, _ = CROSSINGS.get((importer, imported), (None, None))
        if where is None:
            wrong.append(f"{importer} -> {imported}: crosses the layers")
        elif where == "function" and loads.has_edge(importer, imported):
            wrong.append(f"{importer} -> {imported}: allowed only inside a function")
    assert not wrong, "\n".join(wrong)


def test_every_crossing_is_still_an_import():
    imports, loads = import_graphs()
    for (importer, imported), (where, reason) in CROSSINGS.items():
        assert reason
        assert imports.has_edge(importer, imported), (importer, imported)
        if where == "module":
            assert loads.has_edge(importer, imported), (
                f"{importer} imports {imported} only in a function now; "
                "declare the crossing as 'function'"
            )


def test_verify_path_loads_no_load_on_use_module_at_import():
    assert not verify_closure() & load_on_use()


@pytest.mark.parametrize(
    "probe", [probe for _, _, probe in LOAD_ON_USE if probe is not None]
)
def test_a_probed_row_loads_no_other_row_at_import(probe):
    """A probed path stops at its row: importing the row's modules
    loads no module of another row (lint's audit rule must not pull
    in the invariant checker and with it the SAT stack)."""
    _, loads = import_graphs()
    row = set(probe_row(probe))
    reached = set().union(*(descendants(loads, module) for module in row))
    assert not (reached & load_on_use()) - row


def test_load_on_use_rows_are_disjoint_and_name_real_modules():
    rows = [expand(names) for _, names, _ in LOAD_ON_USE]
    flat = [module for row in rows for module in row]
    assert len(flat) == len(set(flat))
    known = source_modules()
    for module in flat:
        assert module in known or not module.startswith("repro"), module


def test_a_load_on_use_package_declares_all_its_modules():
    """If a package loads on use, so do its modules; each is declared
    with the path that loads it, so a new module cannot slip onto the
    verify path undeclared."""
    declared = load_on_use()
    for package in declared:
        if source_modules().get(package, (None, False))[1]:
            inside = {m for m in source_modules() if m.startswith(package + ".")}
            assert inside <= declared, (package, sorted(inside - declared))


def test_lazy_reexports_are_the_packages_with_a_table():
    with_table = {m for m, (_, is_package) in source_modules().items() if is_package and lazy_table(m) is not None}
    assert set(LAZY_REEXPORTS) == with_table


@pytest.mark.parametrize("package", LAZY_REEXPORTS)
def test_package_import_loads_none_of_its_lazy_targets(package):
    """Importing a package binds its table, not the modules it names:
    ``import repro.service`` does not drag in the daemon or the
    process pool."""
    _, loads = import_graphs()
    targets = set(lazy_table(package).values()) - {package}
    assert targets <= set(source_modules()), sorted(targets - set(source_modules()))
    assert not (descendants(loads, package) & targets)


def render_load_table():
    lines = [
        "| when | loads on use, beyond the CLI, frontend and store | runtime probe |",
        "|---|---|---|",
    ]
    for when, names, probe in LOAD_ON_USE:
        modules = ", ".join(f"`{name}`" for name in names) or "nothing"
        lines.append(f"| {when} | {modules} | {probe or '—'} |")
    return "\n".join(lines)


def render_lazy_packages():
    names = [f"`{package}`" for package in LAZY_REEXPORTS]
    return f"the {', '.join(names[:-1])} and {names[-1]} packages re-export lazily"


def test_architecture_doc_matches_the_declaration():
    """The doc's load table and lazy-package list are printed from
    this file's declaration; paste the expected text on a change."""
    text = ARCHITECTURE.read_text()
    section = text.split("### Start-up cost", 1)[1].split("\n## ", 1)[0]
    table = render_load_table()
    assert table in section, f"docs/architecture.md load table must read:\n{table}"
    sentence = render_lazy_packages()
    assert sentence in " ".join(section.split()), (
        f"docs/architecture.md must say: {sentence}"
    )


# -- the runtime probes ------------------------------------------------------

PROBE = """
import contextlib, dataclasses, io, json, sys
built = []
process_class = dataclasses._process_class
def counting(cls, *args, **kwargs):
    built.append(f"{cls.__module__}.{cls.__qualname__}")
    return process_class(cls, *args, **kwargs)
dataclasses._process_class = counting
import repro.core.cli as cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({
    "code": code,
    "out": out.getvalue(),
    "loaded": sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules),
    "repro": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
    "dataclasses": built,
}))
"""


def _probe(argv, env=None):
    """Run ``rehearsal <argv>`` in a fresh interpreter; report which
    load-on-use modules it loaded and the dataclasses it built."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), json.dumps(sorted(load_on_use()))],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), **(env or {})),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["code"] == 0, probe
    return probe


def probe_row(probe):
    (row,) = [names for _, names, name in LOAD_ON_USE if name == probe]
    return sorted(expand(row))


@pytest.fixture(scope="module")
def ntp_fixed(tmp_path_factory):
    """An incremental verify of ntp-fixed with the store in its
    default location, which ``REHEARSAL_CACHE_DIR`` moves."""
    cache = tmp_path_factory.mktemp("cache")
    probe = _probe(
        ["verify", "--incremental", str(MANIFESTS / "ntp-fixed.pp")],
        env={"REHEARSAL_CACHE_DIR": str(cache)},
    )
    assert "DETERMINISTIC" in probe["out"] and "IDEMPOTENT" in probe["out"]
    return probe, cache


def test_ntp_fixed_loads_no_load_on_use_module(ntp_fixed):
    probe, cache = ntp_fixed
    assert probe["loaded"] == probe_row("ntp-fixed") == []
    assert (cache / "incremental.sqlite").exists()


def test_ntp_fixed_builds_few_dataclasses(ntp_fixed):
    built = ntp_fixed[0]["dataclasses"]
    assert len(built) <= MAX_DATACLASSES, built


def test_irc_fixed_loads_the_value_domains_but_no_sat_stack(tmp_path):
    """irc-fixed keeps all 5 resources after elimination, so it is
    pruned and its value domains are built.  Its frontier never
    branches, though, so it has one order and one final state: no
    symbolic state is built and the SAT stack stays out.  Nor does
    the equivalence query load: rewriting proves idempotence."""
    probe = _probe(
        ["verify", "--incremental", "--incremental-dir", str(tmp_path),
         str(MANIFESTS / "irc-fixed.pp")]
    )
    assert "DETERMINISTIC" in probe["out"] and "IDEMPOTENT" in probe["out"]
    assert probe["loaded"] == probe_row("irc-fixed")


def test_lint_loads_no_solver_module():
    """Lint is SAT-free: its race confirmation replays orders on
    concrete states, so no ``repro.logic``, ``repro.sat`` or
    ``repro.smt`` module loads."""
    probe = _probe(["lint", str(MANIFESTS / "ntp-fixed.pp")])
    assert "clean" in probe["out"]
    assert probe["loaded"] == probe_row("lint")
    assert not {package_of(m) for m in probe["repro"]} & {
        "repro.logic",
        "repro.sat",
        "repro.smt",
    }
