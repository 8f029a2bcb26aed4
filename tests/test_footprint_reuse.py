"""Each compiled program's footprint is computed once per verify.

``build_frontend`` computes the footprints, and elimination, pruning,
race localization and lint read them from the ``Frontend``.  Only
programs that pruning or simplification rewrote get a footprint of
their own.  A spy on every binding of ``footprint`` counts the
computations of one in-process ``BatchVerifier`` pass over the
corpus: 121, where computing them per layer took 253.
"""

import sys
from collections import Counter

import pytest

import repro.analysis.commutativity as commutativity
import repro.core.pipeline as pipeline
from repro.corpus import manifest_paths
from repro.service.orchestrator import BatchVerifier

#: Footprint computations allowed per corpus pass: one per compiled
#: program (89), plus one per program pruning rewrote and one per
#: program simplification rewrote before exploration (20 each at most).
MAX_PER_PASS = 129


@pytest.fixture(scope="module")
def traced_pass():
    """(footprint arguments, frontends) of one batch pass, grouped by
    verify: a verify starts when its frontend is built."""
    BatchVerifier().verify_paths(manifest_paths())  # load every module
    original = commutativity.footprint
    bindings = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro")
        and getattr(module, "footprint", None) is original
    ]
    original_build = pipeline.build_frontend
    jobs = []

    def spy(e):
        jobs[-1][0].append(e)
        return original(e)

    def build_frontend(*args, **kwargs):
        jobs.append(([], []))
        front = original_build(*args, **kwargs)
        jobs[-1][1].append(front)
        return front

    try:
        for module in bindings:
            module.footprint = spy
        pipeline.build_frontend = build_frontend
        BatchVerifier().verify_paths(manifest_paths())
    finally:
        for module in bindings:
            module.footprint = original
        pipeline.build_frontend = original_build
    return jobs


def test_one_frontend_per_manifest(traced_pass):
    assert len(traced_pass) == len(manifest_paths()) == 19
    assert all(len(fronts) == 1 for _, fronts in traced_pass)


def test_at_most_one_computation_per_program(traced_pass):
    total = sum(len(calls) for calls, _ in traced_pass)
    assert total <= MAX_PER_PASS, total


def test_no_compiled_program_twice_in_one_verify(traced_pass):
    for calls, (front,) in traced_pass:
        computed = Counter(id(e) for e in calls)
        compiled = Counter(id(e) for e in front.programs.values())
        repeats = {
            node: computed[id(e)]
            for node, e in front.programs.items()
            if computed[id(e)] > compiled[id(e)]
        }
        assert not repeats, repeats



def test_protected_lint_computes_each_footprint_once(monkeypatch):
    """REH010's write audit reads lint's footprints, so ``rehearsal
    lint --protect`` over the corpus computes one footprint per
    compiled program."""
    from repro.analysis.lint import LintOptions, lint_source
    from repro.fs.paths import Path

    sources = []
    for path in manifest_paths():
        with open(path, encoding="utf8") as handle:
            sources.append(handle.read())
    compiled = sum(
        len(pipeline.Rehearsal().frontend(source).programs)
        for source in sources
    )
    original = commutativity.footprint
    calls = []

    def spy(e):
        calls.append(e)
        return original(e)

    for name, module in sorted(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "footprint", None) is original
        ):
            monkeypatch.setattr(module, "footprint", spy)
    options = LintOptions(protected=(Path.of("/etc"), Path.of("/usr")))
    audited = 0
    for source in sources:
        report = lint_source(source, options=options)
        audited += sum(d.rule_id == "REH010" for d in report.diagnostics)
    assert audited > 0
    assert len(calls) == compiled == 89
