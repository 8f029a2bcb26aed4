"""The concrete interleaving oracle against hand-built catalogs."""

import pytest

from repro.digraph import DiGraph
from repro.fs import creat, file_, file_with, ite, mkdir, rm, seq
from repro.fs.filesystem import DIR, FileContent, FileSystem
from repro.fs.paths import Path
from repro.testing.oracle import (
    MAX_ORACLE_RESOURCES,
    initial_state_family,
    racing_pairs,
    run_oracle,
)

ETC = Path.of("/etc")
A = Path.of("/etc/a")
B = Path.of("/etc/b")


def graph_of(programs, edges=()):
    g = DiGraph()
    for name in programs:
        g.add_node(name)
    g.add_edges_from(edges)
    return g


def write(path, content):
    """Idempotent 'force file content' (the file-resource idiom)."""
    return seq(
        ite(file_(path), rm(path), seq()),
        creat(path, content),
    )


class TestVerdicts:
    def test_disjoint_writers_are_deterministic(self):
        programs = {
            "a": creat(A, "x"),
            "b": creat(B, "y"),
        }
        report = run_oracle(graph_of(programs), programs)
        assert report.deterministic is True
        assert not report.skipped

    def test_shared_write_is_nondeterministic(self):
        programs = {
            "a": write(A, "one"),
            "b": write(A, "two"),
        }
        report = run_oracle(graph_of(programs), programs)
        assert report.deterministic is False
        div = report.divergence
        assert div is not None
        assert div.outcome_a != div.outcome_b
        assert report.racing, "a concrete divergence must name a pair"
        assert report.racing[0].key == ("a", "b")
        assert "/etc/a" in report.racing[0].paths

    def test_ordering_edge_restores_determinism(self):
        programs = {
            "a": write(A, "one"),
            "b": write(A, "two"),
        }
        graph = graph_of(programs, [("a", "b")])
        report = run_oracle(graph, programs)
        assert report.deterministic is True

    def test_parent_dir_race_found_via_knockout_states(self):
        # 'user' creates /etc; 'key' errors without /etc.  The
        # scaffold state has /etc present, so only the knockout family
        # member exposes the ok-divergence.
        programs = {
            "user": ite(file_(ETC), seq(), mkdir(ETC)),
            "key": creat(A, "k"),
        }
        report = run_oracle(graph_of(programs), programs)
        assert report.deterministic is False
        assert any(r.ok_divergence for r in report.racing)

    def test_nonidempotent_catalog_detected(self):
        # Unconditional create: second run errors on the existing file.
        programs = {"a": creat(A, "x")}
        graph = graph_of(programs)
        report = run_oracle(graph, programs)
        assert report.deterministic is True
        # creat errors when /etc is missing too — for the single-
        # resource graph every order agrees, but a second run from the
        # success state errors, which e ≡ e;e treats as non-idempotent
        # ... except ERROR short-circuits make an erroring first run
        # trivially idempotent.  From the scaffold the first run
        # succeeds and the second errors: non-idempotent.
        assert report.idempotent is False
        initial, once, twice = report.idempotence_witness
        assert once != twice

    def test_error_is_absorbing_not_divergence(self):
        # Both orders end in ERROR (creat without the parent dir in
        # the empty state); all-error outcomes agree per initial state.
        programs = {
            "a": creat(A, "x"),
            "b": creat(A, "x"),
        }
        report = run_oracle(
            graph_of(programs), programs, max_states=1
        )  # family collapses to the empty filesystem
        assert report.deterministic is True


class TestScope:
    def test_oversized_catalog_is_skipped(self):
        programs = {
            f"r{i}": creat(Path.of(f"/etc/f{i}"), "x")
            for i in range(MAX_ORACLE_RESOURCES + 1)
        }
        report = run_oracle(graph_of(programs), programs)
        assert report.skipped
        assert report.deterministic is None
        assert "exceed" in report.skip_reason

    def test_blown_evaluation_budget_is_a_skip(self):
        programs = {
            "a": write(A, "one"),
            "b": write(A, "two"),
            "c": write(B, "z"),
        }
        report = run_oracle(
            graph_of(programs), programs, max_evaluations=3
        )
        assert report.skipped
        assert report.deterministic is None

    def test_found_divergence_survives_racing_budget_blowup(
        self, monkeypatch
    ):
        # Once a concrete divergence exists the verdict is decisive:
        # racing-pair *attribution* running out of budget degrades to
        # an empty pair list, never back to a skip.
        from repro.testing import oracle as oracle_mod

        def exploding(*args, **kwargs):
            raise oracle_mod.OracleBudgetExceeded()

        monkeypatch.setattr(oracle_mod, "racing_pairs", exploding)
        programs = {
            "a": write(A, "one"),
            "b": write(A, "two"),
        }
        report = oracle_mod.run_oracle(graph_of(programs), programs)
        assert not report.skipped
        assert report.deterministic is False
        assert report.divergence is not None
        assert report.racing == []

    def test_idempotence_budget_blowup_keeps_determinism_verdict(self):
        # Enough budget to prove determinism of the single order but
        # not to re-run it for the idempotence question.
        programs = {"a": write(A, "one"), "b": creat(B, "y")}
        graph = graph_of(programs, [("a", "b")])
        full = run_oracle(graph, programs)
        assert full.deterministic is True
        budget_needed = full.evaluations
        report = run_oracle(
            graph, programs, max_evaluations=budget_needed - 1
        )
        if not report.skipped:  # exploration itself fit
            assert report.deterministic is True
            assert report.idempotent is None

    def test_extra_states_are_tried_first(self):
        # A divergence only triggered by content the sampled family
        # never produces ("three" is not the first sorted content, so
        # the converged member holds "one"): only the caller-provided
        # witness state exposes it.
        special = FileSystem({ETC: DIR, A: FileContent("three")})
        programs = {
            "a": ite(file_with(A, "three"), write(A, "one"), seq()),
            "b": ite(file_with(A, "three"), write(A, "two"), seq()),
        }
        report = run_oracle(
            graph_of(programs),
            programs,
            extra_states=[special],
            max_states=0,
        )
        assert report.deterministic is False
        assert report.divergence.initial == special

        without = run_oracle(
            graph_of(programs), programs, max_states=0
        )
        assert without.deterministic is True


class TestStateFamily:
    def test_family_is_deterministic(self):
        programs = [write(A, "one"), creat(B, "y")]
        first = initial_state_family(programs, seed=3)
        second = initial_state_family(programs, seed=3)
        assert first == second
        assert first != initial_state_family(programs, seed=4)

    def test_family_members_are_well_formed(self):
        programs = [
            write(Path.of("/a/b/c/d"), "x"),
            mkdir(Path.of("/a/b")),
            creat(Path.of("/q/r"), "y"),
        ]
        for fs in initial_state_family(programs, max_states=30, seed=1):
            assert fs.is_well_formed(), fs

    def test_family_contains_empty_and_scaffold(self):
        programs = [write(A, "one")]
        family = initial_state_family(programs)
        assert FileSystem.empty() in family
        assert FileSystem({ETC: DIR}) in family

    def test_no_paths_means_single_empty_state(self):
        assert initial_state_family([seq()]) == [FileSystem.empty()]


def _reference_family(programs, max_states, seed):
    """The family as first written, with every strict ancestor walked
    again per entry of every sampled state: the behaviour
    :func:`initial_state_family` must keep."""
    import random

    from repro.testing.oracle import FOREIGN_CONTENT, footprint_of

    paths, contents = footprint_of(programs)
    if not paths:
        return [FileSystem.empty()]
    rng = random.Random(seed)
    ancestors = set()
    for p in paths:
        for anc in p.ancestors():
            if not anc.is_root and anc != p:
                ancestors.add(anc)

    def well_formed(entries):
        fixed = dict(entries)
        for p in list(entries):
            for anc in p.ancestors():
                if not anc.is_root and anc != p:
                    fixed[anc] = DIR
        return FileSystem(fixed)

    family = [FileSystem.empty()]
    scaffold = {p: DIR for p in ancestors}
    family.append(FileSystem(dict(scaffold)))
    converged = dict(scaffold)
    for p in paths:
        if p in converged:
            continue
        known = contents.get(p)
        if known:
            converged[p] = FileContent(known[0])
    family.append(well_formed(converged))
    for knocked in sorted(ancestors):
        if len(family) >= max_states - 3:
            break
        family.append(
            FileSystem(
                {
                    p: DIR
                    for p in scaffold
                    if p != knocked and not knocked.is_ancestor_of(p)
                }
            )
        )
    while len(family) < max_states:
        entries = {}
        for p in paths:
            roll = rng.random()
            if roll < 0.45:
                continue
            if roll < 0.6:
                entries[p] = DIR
            else:
                pool = contents.get(p, []) + [FOREIGN_CONTENT]
                entries[p] = FileContent(rng.choice(pool))
        family.append(well_formed(entries))
    return family


def _corpus_program_sets():
    """Every corpus resource program alone, then each manifest's
    programs together."""
    from repro.core.pipeline import Rehearsal
    from repro.corpus import CASES, FIXED_VARIANTS, load_source

    sets = []
    for name in sorted(CASES) + sorted(FIXED_VARIANTS):
        _, programs = Rehearsal().compile(load_source(name))
        sets.extend([program] for program in programs.values())
        sets.append(list(programs.values()))
    return sets


class TestStateFamilyMatchesReference:
    @pytest.mark.parametrize("max_states", [6, 12, 24])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corpus_families_unchanged(self, max_states, seed):
        for programs in _corpus_program_sets():
            got = initial_state_family(
                programs, max_states=max_states, seed=seed
            )
            want = _reference_family(programs, max_states, seed)
            assert got == want
            # Entry order too: it is the order eval_expr sees.
            assert [list(fs.paths()) for fs in got] == [
                list(fs.paths()) for fs in want
            ]


class TestRacingPairs:
    def test_pair_racing_only_after_setup_is_found(self):
        # a and b fight over /etc/a, but only once 'setup' created
        # /etc: the racing check must look at reachable intermediate
        # states, not just the initial one.
        programs = {
            "setup": mkdir(ETC),
            "a": write(A, "one"),
            "b": write(A, "two"),
        }
        pairs = racing_pairs(
            graph_of(programs), programs, FileSystem.empty()
        )
        assert ("a", "b") in {p.key for p in pairs}

    def test_ordered_pairs_are_not_reported(self):
        programs = {
            "a": write(A, "one"),
            "b": write(A, "two"),
        }
        graph = graph_of(programs, [("a", "b")])
        pairs = racing_pairs(graph, programs, FileSystem({ETC: DIR}))
        assert pairs == []
