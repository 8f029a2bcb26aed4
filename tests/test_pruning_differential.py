"""``prune_manifest`` against the sequential chain of one-path prunes.

``prune_manifest`` prunes each resource's candidates
(``prune_candidates``) in turn with one shared ``_Pruner``, whose walks
skip every subtree that does not concern their path.  Its programs and
``pruned_paths`` must equal those of the chain
``prune(p_k, … prune(p_1, e))`` that skips every None, computed two
ways: with the public one-path ``prune``, and with a walk that skips
nothing (every node concerns every path), which is the plain per-path
walk the skipping must reproduce.

Inputs: the post-elimination programs of the 19 corpus manifests and
of ``CaseGenerator(42)`` cases 0–299, and hand-written resources in
which a path and its parent are both candidates, in both statement
orders.  The candidate order is the programs' first-write order, so
the comparison must hold under every hash seed.
"""

import pytest

from repro import Rehearsal
from repro.analysis.commutativity import footprint
from repro.analysis.elimination import eliminate_resources
from repro.analysis.pruning import (
    _Pruner,
    prune,
    prune_candidates,
    prune_manifest,
)
from repro.corpus import BENCHMARK_NAMES, FIXED_VARIANTS, load_source
from repro.fs import (
    ERR,
    ID,
    TRUE,
    If,
    PAnd,
    Path,
    Seq,
    cp,
    creat,
    dir_,
    file_,
    ite,
    mkdir,
    pnot,
    rm,
    seq,
)
from repro.testing import CaseGenerator


class _Unindexed(_Pruner):
    """The per-path walk with nothing skipped."""

    def _mask(self, node) -> int:
        return -1


def _unindexed_prune(path, e):
    return _Unindexed((path,)).prune(path, e)


def sequential(exprs, prune_one):
    """Each resource's candidates pruned one call at a time, each on
    the previous result; a None leaves the program as it was."""
    prints = [footprint(e) for e in exprs]
    programs, pruned_paths = [], []
    for e, candidates in zip(exprs, prune_candidates(exprs, prints)):
        for p in candidates:
            pruned = prune_one(p, e)
            if pruned is not None:
                e = pruned
                pruned_paths.append(p)
        programs.append(e)
    return programs, pruned_paths


def assert_matches_sequential(exprs):
    programs, report = prune_manifest(exprs)
    for prune_one in (prune, _unindexed_prune):
        want_programs, want_paths = sequential(exprs, prune_one)
        assert report.pruned_paths == want_paths
        assert programs == want_programs
    assert report.footprints == [footprint(e) for e in programs]
    return report


def post_elimination(tool, source):
    front = tool.frontend(source)
    graph, programs = tool.with_prelude(front)
    work, _ = eliminate_resources(graph, programs)
    return [programs[n] for n in work.nodes]


@pytest.fixture(scope="module")
def tool():
    return Rehearsal()


@pytest.mark.parametrize("name", BENCHMARK_NAMES + sorted(FIXED_VARIANTS))
def test_corpus_manifest(tool, name):
    assert_matches_sequential(post_elimination(tool, load_source(name)))


def test_generated_catalogs(tool):
    pruned = 0
    for case in CaseGenerator(42).cases(300):
        exprs = post_elimination(tool, case.source)
        pruned += bool(assert_matches_sequential(exprs).pruned_paths)
    # The stream must exercise the pass (119 of the 300 prune a path).
    assert pruned >= 100, pruned


D, F, G = Path.of("/d"), Path.of("/d/f"), Path.of("/d/g")

#: Single resources in which /d and a child are both candidates, each
#: in both statement orders.
PARENT_AND_CHILD = {
    "mkdir-creat": (mkdir(D), creat(F, "x")),
    "guarded-mkdir-creat": (ite(pnot(dir_(D)), mkdir(D), ID), creat(F, "x")),
    "rm-rm": (rm(F), rm(D)),
    "mkdir-cp": (seq(mkdir(D), creat(F, "x")), cp(F, G)),
    "mkdir-checked-creat": (
        mkdir(D),
        ite(file_(F), ID, creat(F, "y")),
    ),
    # Nodes fx.seq/fx.ite/fx.pand would not build: the walks must
    # rebuild them rather than skip them.
    "unnormalized": (
        Seq(ID, mkdir(D)),
        If(PAnd(TRUE, file_(G)), Seq(creat(F, "x"), ERR), creat(F, "x")),
    ),
}


@pytest.mark.parametrize("name", sorted(PARENT_AND_CHILD))
@pytest.mark.parametrize("reverse", [False, True])
def test_path_and_parent_both_candidates(name, reverse):
    first, second = PARENT_AND_CHILD[name]
    e = seq(second, first) if reverse else seq(first, second)
    (candidates,) = prune_candidates([e], [footprint(e)])
    assert D in candidates and F in candidates
    assert_matches_sequential([e])


def test_a_bail_leaves_the_later_candidates_intact():
    """The parent's walk bails at the child's creat after rewriting its
    own mkdir; the child's walk must see the mkdir as written."""
    e = seq(mkdir(D), creat(F, "x"))
    report = assert_matches_sequential([e])
    assert report.pruned_paths == [F]


def test_candidates_in_first_write_order():
    """Branch merges keep the then-branch's write order, then the
    else-branch's new paths: the order cannot follow the hash seed."""
    paths = [Path.of(f"/p{i}") for i in range(8)]
    then_writes = seq(*[creat(p, "x") for p in paths[:5]])
    else_writes = seq(*[creat(p, "y") for p in reversed(paths[3:])])
    e = ite(file_(Path.of("/guard")), then_writes, else_writes)
    (candidates,) = prune_candidates([e], [footprint(e)])
    assert candidates == paths[:5] + paths[7:4:-1]
