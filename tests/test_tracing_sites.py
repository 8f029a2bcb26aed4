"""The benchmark's tracer still finds every binding site it wraps.

``perfbench/tracing.py`` records spans by replacing module attributes
at fixed binding sites (its ``FUNCTION_SITES`` and ``METHOD_SITES``),
one of them a package attribute (``repro.analysis.lint.lint_source``).
A rename, a moved import or a package ``__init__`` rewrite that drops
one would break the benchmark only when it runs.  These tests install
the tracer, check that each site is wrapped and records its span, and
put the originals back.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402

from repro.corpus import load_source  # noqa: E402


def _sites():
    """(owner, attribute) of every binding site the tracer wraps."""
    sites = [
        (importlib.import_module(module), attr)
        for entries in tracing.FUNCTION_SITES.values()
        for module, attr in entries
    ]
    sites += [
        (getattr(importlib.import_module(module), cls), method)
        for module, cls, method in tracing.METHOD_SITES.values()
    ]
    return sites


def _current(sites):
    return [owner.__dict__[attr] for owner, attr in sites]


@pytest.fixture
def installed():
    """The tracer installed on every site, removed afterwards."""
    sites = _sites()
    originals = _current(sites)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        yield tracer, sites, originals
    finally:
        restore()
    assert _current(sites) == originals


def test_every_site_resolves_and_is_wrapped(installed):
    _, sites, originals = installed
    assert len(sites) == 12
    for (owner, attr), original, wrapped in zip(sites, originals, _current(sites)):
        assert wrapped is not original, (owner, attr)
        assert wrapped.__wrapped__ is original, (owner, attr)


def test_a_verify_and_a_lint_record_the_layer_spans(installed):
    tracer, _, _ = installed
    from repro.analysis.lint import lint_source
    from repro.core.pipeline import Rehearsal

    source = load_source("irc-fixed")
    report = Rehearsal().verify(source)
    assert report.deterministic and report.idempotent
    lint_source(source, name="irc-fixed.pp")
    names = {span[1] for span in tracer.spans}
    assert {
        "verify",
        "puppet.parse",
        "puppet.evaluate",
        "puppet.graph",
        "resources.compile",
        "determinism",
        "idempotence",
        "lint",
    } <= names
