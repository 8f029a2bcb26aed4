"""The documented stable surface, `repro.__all__`, and the lazy-export
table must agree — and every name must actually resolve."""

import re
from pathlib import Path

import pytest

import repro
from test_import_graph import LAZY_REEXPORTS

API_REFERENCE = Path(__file__).resolve().parents[1] / "docs" / "api-reference.md"


def documented_surface():
    """The bullet list under '## Stable surface' in api-reference.md."""
    text = API_REFERENCE.read_text()
    match = re.search(r"## Stable surface\n(.*?)\n## ", text, re.DOTALL)
    assert match, "api-reference.md lost its '## Stable surface' section"
    return set(re.findall(r"^- `([A-Za-z_][A-Za-z0-9_]*)`", match.group(1), re.M))


class TestStableSurface:
    def test_docs_match_dunder_all(self):
        documented = documented_surface()
        exported = set(repro.__all__)
        assert documented == exported, (
            "docs/api-reference.md 'Stable surface' and repro.__all__ "
            f"disagree: only in docs {sorted(documented - exported)}, "
            f"only in __all__ {sorted(exported - documented)}"
        )

    def test_dunder_all_matches_lazy_exports(self):
        assert set(repro.__all__) == set(repro._LAZY_EXPORTS) | {"__version__"}
        assert repro.__all__ == sorted(repro._LAZY_EXPORTS) + ["__version__"]

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_lazy_targets_define_their_names(self):
        """Each export must live in the module the table claims, so
        first access imports that module alone — what keeps the
        one-shot CLI's import cost down (tests/test_import_graph.py)."""
        import importlib

        for name, target in repro._LAZY_EXPORTS.items():
            module = importlib.import_module(target)
            assert hasattr(module, name), f"{target} does not define {name}"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_export

    def test_submodule_access_still_works(self):
        assert repro.corpus.BENCHMARK_NAMES

    def test_version_shape(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


@pytest.mark.parametrize("package", LAZY_REEXPORTS)
def test_lazy_subpackage_exports_resolve(package):
    """Every lazy package uses the same table: every public name
    still imports from the package, from the module the table names."""
    import importlib

    module = importlib.import_module(package)
    assert [n for n in module.__all__ if n != "__version__"] == sorted(
        module._LAZY_EXPORTS
    )
    for name, target in module._LAZY_EXPORTS.items():
        assert getattr(module, name) is getattr(
            importlib.import_module(target), name
        ), name


def test_retired_solver_knobs_are_gone():
    """The portfolio, cube and solver-configuration surface was
    removed outright (no workload measured a win); importing it must
    fail loudly rather than resolve to a stale shim."""
    import dataclasses

    import repro.sat
    from repro.analysis.determinism import DeterminismOptions

    for name in ("PortfolioBackend", "SolverConfig"):
        with pytest.raises(AttributeError):
            getattr(repro, name)
    for name in ("DEFAULT_CONFIG", "backend_label", "default_portfolio"):
        with pytest.raises(AttributeError):
            getattr(repro.sat, name)
    fields = {f.name for f in dataclasses.fields(DeterminismOptions)}
    assert not fields & {"portfolio", "solver_workers"}


def test_retired_settings_are_gone():
    """The settings no caller set (the lint prefilter, the conflict
    budget, ``well_formed_initial``, batch/daemon package semantics,
    the daemon drain time and the SAT backend choice) were removed;
    none may come back as a field or a parameter."""
    import dataclasses
    import inspect

    from repro.analysis.determinism import DeterminismOptions
    from repro.analysis.equivalence import check_equivalence
    from repro.analysis.localize import localize_race
    from repro.sat.solver import Solver
    from repro.service.cache import cache_key
    from repro.service.daemon import DaemonConfig
    from repro.service.orchestrator import BatchVerifier, verify_batch
    from repro.smt.query import IncrementalQuery, Query, check_sat

    options = {f.name for f in dataclasses.fields(DeterminismOptions)}
    retired = {"lint_prefilter", "max_conflicts", "well_formed_initial", "solver"}
    assert not options & retired
    assert len(options) == 9
    config = {f.name for f in dataclasses.fields(DaemonConfig)}
    assert not config & {"package_semantics", "drain_seconds"}
    assert len(config) == 15
    for fn in (BatchVerifier, verify_batch, cache_key):
        assert "package_semantics" not in inspect.signature(fn).parameters
    for fn in (
        localize_race,
        check_equivalence,
        check_sat,
        Query.check,
        IncrementalQuery.check,
        Solver.solve,
    ):
        assert "max_conflicts" not in inspect.signature(fn).parameters, fn
    for cls in (Query, IncrementalQuery):
        assert "backend" not in inspect.signature(cls).parameters, cls


@pytest.mark.parametrize(
    "module",
    [
        "repro.sat.backend",
        "repro.sat.external",
        "repro.sat.dimacs",
        "repro.logic.simplify",
    ],
)
def test_retired_solver_modules_are_gone(module):
    """The external-solver layer, DIMACS I/O and the unused formula
    simplifier were deleted; the in-process CDCL solver is the one SAT
    backend."""
    import importlib

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_backend_names_are_not_exported():
    import repro.sat

    retired = {"ExternalBackend", "SolverBackend", "parse_backend_spec"}
    assert not retired & set(repro.__all__)
    for name in retired:
        assert not hasattr(repro.sat, name), name


def test_unsat_core_localization_is_gone():
    """Races are localized by replaying the witness, not by shrinking
    an unsat core on the determinacy solver: the core minimizer and its
    size limit are gone, and ``localize_race`` takes no solver.  Its
    one caller always has the explorer's descendant sets and the
    footprints, so both are required."""
    import inspect

    from repro.analysis import localize

    assert not hasattr(localize, "_minimize_core")
    assert not hasattr(localize, "DELETION_MINIMIZE_LIMIT")
    params = inspect.signature(localize.localize_race).parameters
    for name in ("bank", "domains", "query", "pair_selector", "deadline"):
        assert name not in params, name
    for name in ("descendants", "prints"):
        assert params[name].default is inspect.Parameter.empty, name


def test_lint_options_keep_only_what_callers_set():
    """The confirmation state count and evaluation budget are module
    constants of the race rule, not options."""
    import dataclasses

    from repro.analysis.lint import LintOptions
    from repro.analysis.lint.rules import races

    fields = {f.name for f in dataclasses.fields(LintOptions)}
    assert fields == {"confirm_races", "protected", "disabled"}
    assert (races._MAX_STATES, races._MAX_EVALUATIONS) == (12, 20_000)


@pytest.mark.parametrize("command", ["verify", "verify-batch", "serve"])
def test_lint_prefilter_flag_is_rejected(command, tmp_path, capsys):
    from repro.core.cli import main as cli_main

    manifest = tmp_path / "m.pp"
    manifest.write_text("file { '/a': content => 'x' }\n")
    target = [] if command == "serve" else [str(manifest)]
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *target, "--lint-prefilter"])
    assert exc.value.code == 2
    assert "--lint-prefilter" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "verify-batch", "serve"])
def test_solver_flag_is_rejected(command, tmp_path, capsys):
    from repro.core.cli import main as cli_main

    manifest = tmp_path / "m.pp"
    manifest.write_text("file { '/a': content => 'x' }\n")
    target = [] if command == "serve" else [str(manifest)]
    with pytest.raises(SystemExit) as exc:
        cli_main([command, *target, "--solver", "cdcl"])
    assert exc.value.code == 2
    assert "--solver" in capsys.readouterr().err


def test_prefilter_proved_is_always_false_on_the_corpus():
    """``DeterminismStats.prefilter_proved`` stays in rows for their
    readers; nothing sets it any more."""
    from repro.analysis.determinism import DeterminismOptions
    from repro.core.pipeline import Rehearsal
    from repro.corpus import CASES, FIXED_VARIANTS, load_source

    tool = Rehearsal(options=DeterminismOptions(incremental=False))
    names = sorted(CASES) + sorted(FIXED_VARIANTS)
    assert len(names) == 19
    for name in names:
        det = tool.check_determinism(load_source(name))
        assert det.stats.prefilter_proved is False, name


@pytest.mark.parametrize("name", sorted(repro._LAZY_EXPORTS))
def test_root_export_is_its_defining_modules_object(name):
    """``repro.X`` is the very object its table entry's module defines,
    not a same-named stand-in imported from somewhere else."""
    import importlib

    target = importlib.import_module(repro._LAZY_EXPORTS[name])
    assert getattr(repro, name) is getattr(target, name)


def test_retired_test_orchestration_is_gone():
    """Test selection, burn-in and the results store were removed with
    ``repro.testing.orchestrate``; nothing may still resolve to them."""
    import importlib

    import repro.testing

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.testing.orchestrate")
    assert not any(
        target.startswith("repro.testing.orchestrate")
        for package in (repro, repro.testing)
        for target in package._LAZY_EXPORTS.values()
    )


@pytest.mark.parametrize(
    "action", ["testmap", "burnin", "testreport", "solve"]
)
def test_retired_subcommands_fail_loudly(action, capsys):
    """The retired subcommands are not verbs any more: the CLI names
    the word as an unknown command and lists the real ones."""
    from repro.core.cli import COMMANDS, main as cli_main

    assert cli_main([action]) == 2
    err = capsys.readouterr().err
    assert f"error: unknown command '{action}'" in err
    assert all(command in err for command in COMMANDS)
