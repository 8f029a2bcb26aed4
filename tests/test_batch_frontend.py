"""A batch row builds the frontend once and lints what verify used.

``_verify_one`` parses, evaluates, builds the graph and compiles the
resources once, then hands that to both ``Rehearsal.verify`` and
``lint_source``.  Its rows must equal what the two give when each
builds its own frontend, on the corpus and on every way the frontend
can fail.  A linter crash must not cost the row its verdict, and must
show in the log.
"""

import logging

import pytest

from repro.analysis.determinism import DeterminismOptions
from repro.analysis.lint import LintOptions, lint_source
from repro.core.pipeline import Rehearsal
from repro.corpus import CASES, FIXED_VARIANTS, load_source
from repro.resources.compiler import ModelContext
from repro.service import BatchVerifier, ManifestResult
from repro.service.schema import normalized_row

OPTIONS = DeterminismOptions(incremental=False)
CORPUS = sorted(CASES) + sorted(FIXED_VARIANTS)

#: One manifest per way the frontend can fail: REH001, REH002 (twice),
#: REH007, REH008 and REH003.
BROKEN = {
    "parse-error.pp": "file { '/a': ensure => \n",
    "eval-error.pp": "include nosuch\n",
    "duplicate-declaration.pp": (
        'file { "/a": ensure => file }\nfile { "/a": ensure => file }\n'
    ),
    "dangling-reference.pp": (
        'file { "/a": content => "x", require => Package["nope"] }\n'
    ),
    "cycle.pp": (
        'file { "/a": content => "x", require => File["/b"] }\n'
        'file { "/b": content => "y", require => File["/a"] }\n'
    ),
    "unmodeled.pp": (
        'package { "x": ensure => "1.0" }\n'
        'file { "/etc/a.conf": ensure => "banana" }\n'
        'file { "/etc/b.conf": content => "b" }\n'
    ),
}


def separate_row(verifier: BatchVerifier, name: str, source: str) -> dict:
    """The row as ``Rehearsal.verify`` and ``lint_source`` give it when
    each builds its own frontend."""
    job = verifier._make_job(name, source)
    context = ModelContext.for_platform(
        verifier.platform, synthesize=verifier.synthesize_packages
    )
    tool = Rehearsal(
        context=context, options=verifier.options, node_name=verifier.node_name
    )
    result = ManifestResult.from_report(
        tool.verify(source, name=name), sha256=job.sha256, cache_key=job.key
    )
    result.lint = lint_source(
        source,
        name=name,
        options=LintOptions(),
        context=context,
        node_name=verifier.node_name,
    ).to_dict()
    return normalized_row(result.to_dict())


def assert_rows_match(verifier: BatchVerifier, sources) -> None:
    rows = verifier.verify_sources(sources).results
    for (name, source), row in zip(sources, rows):
        assert normalized_row(row.to_dict()) == separate_row(
            verifier, name, source
        ), name


def test_corpus_rows_match_separate_runs():
    verifier = BatchVerifier(OPTIONS, workers=1, cache=None)
    assert_rows_match(
        verifier, [(f"{name}.pp", load_source(name)) for name in CORPUS]
    )


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_frontend_failures_match_separate_runs(name):
    verifier = BatchVerifier(OPTIONS, workers=1, cache=None)
    assert_rows_match(verifier, [(name, BROKEN[name])])
    row = verifier.verify_sources([(name, BROKEN[name])]).results[0]
    assert row.status == "error" and row.lint is not None


def test_unmodeled_resources_each_get_a_diagnostic():
    """The pipeline stops at the first resource it cannot model; lint
    reports every one of them."""
    verifier = BatchVerifier(OPTIONS, workers=1, cache=None)
    (row,) = verifier.verify_sources(
        [("m.pp", BROKEN["unmodeled.pp"])]
    ).results
    rules = [d["rule_id"] for d in row.lint["diagnostics"]]
    assert rules.count("REH003") == 2


def test_lint_crash_keeps_the_verdict_and_is_logged(monkeypatch, caplog):
    from repro.analysis.lint import engine

    verifier = BatchVerifier(OPTIONS, workers=1, cache=None)
    sources = [("ntp-nondet.pp", load_source("ntp-nondet"))]
    healthy = verifier.verify_sources(sources).results[0]

    def crashing_rule(ctx):
        raise RuntimeError("rule bug")

    monkeypatch.setattr(
        engine, "GRAPH_CHECKERS", engine.GRAPH_CHECKERS + [crashing_rule]
    )
    with caplog.at_level(logging.WARNING, logger="repro.service.orchestrator"):
        crashed = verifier.verify_sources(sources).results[0]

    assert crashed.lint is None
    want = normalized_row(healthy.to_dict())
    got = normalized_row(crashed.to_dict())
    want.pop("lint")
    got.pop("lint")
    assert got == want
    warnings = [
        r.getMessage() for r in caplog.records if r.levelno == logging.WARNING
    ]
    assert any(
        "ntp-nondet.pp" in message and "RuntimeError" in message
        for message in warnings
    ), warnings
