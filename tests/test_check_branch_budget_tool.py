"""The exploration-budget guard in tools/, end to end.

``tools/check_branch_budget.py`` must be green on the shipped corpus
and go red, with its own message, on each budget it enforces.  The red
cases lower one budget below today's numbers (9 branches max, 34
total, 492 on the Fig. 13 lattice) instead of breaking a reduction, so
each test trips exactly one check.
"""

import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_branch_budget.py"


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_branch_budget_under_test", TOOL
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool():
    return load_tool()


def test_green_on_the_shipped_corpus():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(TOOL)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exploration within budget" in proc.stdout


@pytest.mark.parametrize(
    "constant, value, expected",
    [
        ("MAX_BRANCHES_PER_MANIFEST", 8, "per-manifest budget of 8"),
        ("MAX_BRANCHES_TOTAL", 33, "exceeds the budget of 33"),
        (
            "EARLY_EXIT_MAX_BRANCHES",
            8,
            "no longer stops at the first diverging final",
        ),
        (
            "FIG13_MAX_BRANCHES",
            491,
            "exploration memoization has regressed",
        ),
    ],
    ids=["per-manifest", "total", "early-exit", "fig13-lattice"],
)
def test_red_when_a_budget_is_exceeded(
    tool, monkeypatch, capsys, constant, value, expected
):
    monkeypatch.setattr(tool, constant, value)
    assert tool.main() == 1
    err = capsys.readouterr().err
    assert "exploration budget exceeded" in err
    assert expected in err, err


def test_red_when_memoization_stops_merging(tool, monkeypatch, capsys):
    real = tool.check_determinism

    def no_memo_hits(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(
            result, stats=dataclasses.replace(result.stats, memo_hits=0)
        )

    monkeypatch.setattr(tool, "check_determinism", no_memo_hits)
    assert tool.main() == 1
    assert "zero memo hits" in capsys.readouterr().err


def test_red_when_irc_fixed_reaches_sat(tool, monkeypatch, capsys):
    real = tool.check_determinism

    def one_sat_query(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(
            result, stats=dataclasses.replace(result.stats, sat_queries=1)
        )

    monkeypatch.setattr(tool, "check_determinism", one_sat_query)
    assert tool.main() == 1
    err = capsys.readouterr().err
    assert "irc-fixed: 1 finals and 1 SAT queries" in err, err
    assert "settled directories no longer commute" in err
