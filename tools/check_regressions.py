#!/usr/bin/env python3
"""CI guard for the fuzz-regression corpus (``tests/regressions/``).

Asserts, for every committed reproducer:

1. its machine-readable header validates **field by field** (integer
   seed / case id / generator version, a disagreement kind the
   differential driver can actually emit, tristate expected verdicts,
   a ``found-by`` attribution, a non-empty manifest body) — every
   problem is reported with a per-field message, not just the first;
2. it was minted under the *current* generator version, so its
   seed/case-id still re-create the original catalog;
3. it parses as a Puppet manifest;
4. it is referenced by the replay test: the discovery the test
   parametrizes over must return exactly the files on disk, so a
   reproducer can neither be skipped silently nor linger unreplayed.

Exit codes: 0 — corpus is sound; 1 — a check failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.puppet.parser import parse_manifest  # noqa: E402
from repro.testing.generate import GENERATOR_VERSION  # noqa: E402
from repro.testing.regressions import (  # noqa: E402
    discover,
    parse_header,
    validate_header,
)

REGRESSION_DIR = REPO_ROOT / "tests" / "regressions"
REPLAY_TEST = REPO_ROOT / "tests" / "test_regressions.py"


def _replay_parametrization():
    """The list of paths ``test_regressions.py`` actually parametrizes
    over (its module-level ``REGRESSIONS``), or None when the module
    cannot be imported or no longer exposes the list."""
    import importlib.util

    try:
        spec = importlib.util.spec_from_file_location(
            "replay_test_module", REPLAY_TEST
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:  # noqa: BLE001 — any import failure is a finding
        return None
    replayed = getattr(module, "REGRESSIONS", None)
    if not isinstance(replayed, list):
        return None
    return set(replayed)


def main() -> int:
    failures = []
    if not REGRESSION_DIR.is_dir():
        print(f"error: {REGRESSION_DIR} does not exist", file=sys.stderr)
        return 1

    discovered = discover(REGRESSION_DIR)
    if not discovered:
        failures.append("tests/regressions/ holds no reproducers")

    # Every file on disk must be in the replay test's *actual*
    # parametrization list — import the test module and read the list
    # it collects, so a rewrite that filters or hardcodes filenames
    # cannot leave a reproducer silently unreplayed.
    replayed = _replay_parametrization()
    if replayed is None:
        failures.append(
            f"cannot import {REPLAY_TEST.name} or it no longer "
            "exposes a REGRESSIONS list; the corpus is not "
            "guaranteed to be replayed"
        )
    else:
        unreplayed = [p.name for p in discovered if p not in replayed]
        if unreplayed:
            failures.append(
                f"not referenced by the replay test: {unreplayed}"
            )

    for path in discovered:
        text = path.read_text(encoding="utf8")
        problems = validate_header(text, path.name)
        if problems:
            failures.extend(problems)
            continue
        header = parse_header(text, path.name)
        if header.generator_version != GENERATOR_VERSION:
            failures.append(
                f"{path.name}: minted under generator "
                f"v{header.generator_version} but the current "
                f"generator is v{GENERATOR_VERSION} — its "
                "seed/case-id no longer re-create the catalog; "
                "re-mint the reproducer"
            )
            continue
        try:
            parse_manifest(text)
        except Exception as exc:  # noqa: BLE001 — report, don't crash
            failures.append(f"{path.name}: does not parse: {exc}")
            continue
        print(
            f"ok: {path.name} (seed {header.seed}, case "
            f"{header.case_id}, {header.disagreement}, expected "
            f"deterministic={header.expected_deterministic})"
        )

    if failures:
        print(
            f"\n{len(failures)} regression-corpus problem(s):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nregression corpus sound: {len(discovered)} reproducer(s).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
