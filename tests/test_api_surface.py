"""The documented stable surface, `repro.__all__`, and the lazy-export
table must agree — and every name must actually resolve."""

import re
from pathlib import Path

import pytest

import repro

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


@pytest.mark.parametrize(
    "package",
    ["repro.analysis", "repro.sat", "repro.service", "repro.smt", "repro.testing"],
)
def test_lazy_subpackage_exports_resolve(package):
    """The subpackages use the same lazy table: every public name
    still imports from the package, from the module the table names."""
    import importlib

    module = importlib.import_module(package)
    assert module.__all__ == sorted(module._LAZY_EXPORTS)
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


@pytest.mark.parametrize("action", ["testmap", "burnin", "testreport"])
def test_retired_subcommands_fail_loudly(action, capsys):
    """The retired subcommands are not verbs any more: the CLI reads
    the word as a manifest path and fails with a usage error."""
    from repro.core.cli import main as cli_main

    assert cli_main([action]) == 2
    assert f"cannot read manifest {action}" in capsys.readouterr().err
