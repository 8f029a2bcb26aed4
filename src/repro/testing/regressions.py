"""Shrunk fuzz counterexamples as a permanent regression corpus.

Every disagreement the fuzzer ever finds is shrunk, serialized through
:mod:`repro.puppet.printer`, and committed under ``tests/regressions/``
with a machine-readable comment header.  A parametrized test replays
each file through the differential driver forever; this module is the
shared plumbing (header format, discovery) used by that test and by
``tools/check_regressions.py``.

Header format — ``# key: value`` comment lines before any code:

.. code-block:: puppet

    # rehearsal-fuzz reproducer
    # seed: 42
    # case-id: 17
    # generator-version: 1
    # bug-class: shared-write
    # found-by: nightly-fuzz
    # disagreement: missed_nondet
    # expected-deterministic: false
    # expected-idempotent: none

``seed``/``case-id``/``generator-version`` re-create the original
(unshrunk) case; ``expected-*`` pin the verdicts the *fixed* pipeline
must produce (``none`` for "not checked", e.g. idempotence of a
non-deterministic manifest); ``disagreement`` records what went wrong
when the file was minted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

MARKER = "rehearsal-fuzz reproducer"

#: Header keys every regression file must carry.
REQUIRED_KEYS = (
    "seed",
    "case-id",
    "generator-version",
    "disagreement",
    "expected-deterministic",
)

#: Disagreement kinds the differential driver can actually emit; a
#: header claiming anything else was hand-edited or minted by an
#: incompatible tool.
KNOWN_DISAGREEMENTS = frozenset(
    {
        "missed_nondet",
        "false_nondet",
        "witness_invalid",
        "missed_nonidempotence",
        "idempotence_witness_invalid",
        "race_pair_mismatch",
        "race_path_mismatch",
        "pipeline_error",
        "lint_false_race",
    }
)

_HEADER_RE = re.compile(r"^#\s*([a-z-]+):\s*(.+?)\s*$")


@dataclass
class RegressionHeader:
    seed: int
    case_id: int
    generator_version: int
    disagreement: str
    expected_deterministic: Optional[bool]
    expected_idempotent: Optional[bool] = None
    bug_class: Optional[str] = None
    found_by: Optional[str] = None


class RegressionFormatError(ValueError):
    """The file is not a well-formed fuzz reproducer."""


def discover(directory: Path) -> List[Path]:
    """Every reproducer in ``directory``, sorted for stable test ids."""
    return sorted(Path(directory).glob("*.pp"))


def parse_header(text: str, name: str = "<regression>") -> RegressionHeader:
    lines = text.splitlines()
    if not lines or MARKER not in lines[0]:
        raise RegressionFormatError(
            f"{name}: first line must be '# {MARKER}'"
        )
    fields = {}
    for line in lines[1:]:
        if not line.startswith("#"):
            break
        match = _HEADER_RE.match(line)
        if match:
            fields[match.group(1)] = match.group(2)
    missing = [key for key in REQUIRED_KEYS if key not in fields]
    if missing:
        raise RegressionFormatError(
            f"{name}: header is missing {missing}"
        )
    try:
        return RegressionHeader(
            seed=int(fields["seed"]),
            case_id=int(fields["case-id"]),
            generator_version=int(fields["generator-version"]),
            disagreement=fields["disagreement"],
            expected_deterministic=_tristate(
                fields["expected-deterministic"], name
            ),
            expected_idempotent=_tristate(
                fields.get("expected-idempotent", "none"), name
            ),
            bug_class=fields.get("bug-class"),
            found_by=fields.get("found-by"),
        )
    except ValueError as exc:
        raise RegressionFormatError(f"{name}: {exc}") from None


def validate_header(text: str, name: str = "<regression>") -> List[str]:
    """Validate the full header schema field by field.

    Unlike :func:`parse_header` (which raises on the first problem so
    replay can bail early), this returns *every* problem with a
    per-field message — ``tools/check_regressions.py`` reports them all
    at once.  An empty list means the header is well formed.
    """
    problems: List[str] = []
    lines = text.splitlines()
    if not lines or MARKER not in lines[0]:
        problems.append(f"{name}: first line must be '# {MARKER}'")
        return problems
    fields = {}
    for line in lines[1:]:
        if not line.startswith("#"):
            break
        match = _HEADER_RE.match(line)
        if match:
            key, value = match.group(1), match.group(2)
            if key in fields:
                problems.append(f"{name}: duplicate header key {key!r}")
            fields[key] = value
    for key in ("seed", "case-id", "generator-version"):
        raw = fields.get(key)
        if raw is None:
            problems.append(f"{name}: missing required key {key!r}")
        elif not raw.isdigit():
            problems.append(
                f"{name}: {key} must be a non-negative integer, "
                f"got {raw!r}"
            )
    disagreement = fields.get("disagreement")
    if disagreement is None:
        problems.append(f"{name}: missing required key 'disagreement'")
    elif disagreement not in KNOWN_DISAGREEMENTS:
        problems.append(
            f"{name}: unknown disagreement {disagreement!r} "
            f"(known: {', '.join(sorted(KNOWN_DISAGREEMENTS))})"
        )
    for key in ("expected-deterministic", "expected-idempotent"):
        raw = fields.get(key)
        if raw is None:
            if key in REQUIRED_KEYS:
                problems.append(f"{name}: missing required key {key!r}")
            continue
        if raw.strip().lower() not in ("true", "false", "none"):
            problems.append(
                f"{name}: {key} must be true/false/none, got {raw!r}"
            )
    if not fields.get("found-by"):
        problems.append(
            f"{name}: missing 'found-by' (which tool minted this?)"
        )
    body = "\n".join(
        line for line in lines if not line.startswith("#")
    ).strip()
    if not body:
        problems.append(f"{name}: no manifest body after the header")
    return problems


def format_reproducer(
    source: str,
    seed: int,
    case_id: int,
    disagreement: str,
    expected_deterministic: Optional[bool],
    expected_idempotent: Optional[bool] = None,
    bug_class: Optional[str] = None,
    found_by: str = "fuzz",
    generator_version: Optional[int] = None,
) -> str:
    """Render a reproducer file: header plus printed manifest."""
    from repro.testing.generate import GENERATOR_VERSION

    version = (
        GENERATOR_VERSION if generator_version is None else generator_version
    )
    lines = [
        f"# {MARKER}",
        f"# seed: {seed}",
        f"# case-id: {case_id}",
        f"# generator-version: {version}",
    ]
    if bug_class is not None:
        lines.append(f"# bug-class: {bug_class}")
    lines.append(f"# found-by: {found_by}")
    lines.append(f"# disagreement: {disagreement}")
    lines.append(
        f"# expected-deterministic: {_render_tristate(expected_deterministic)}"
    )
    lines.append(
        f"# expected-idempotent: {_render_tristate(expected_idempotent)}"
    )
    return "\n".join(lines) + "\n\n" + source.strip() + "\n"


def _tristate(raw: str, name: str) -> Optional[bool]:
    value = raw.strip().lower()
    if value == "true":
        return True
    if value == "false":
        return False
    if value == "none":
        return None
    raise RegressionFormatError(
        f"{name}: expected true/false/none, got {raw!r}"
    )


def _render_tristate(value: Optional[bool]) -> str:
    if value is None:
        return "none"
    return "true" if value else "false"
