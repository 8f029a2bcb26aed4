"""Tests for the reachable-state-DAG exploration (§4's Φ_G walk,
rewritten from the O(n!) order tree to a worklist memoized on
``(frozenset(remaining), state fingerprint)``).

Covers the fingerprint layer, the memo/dedup counters, the guarantee
that deduplication never drops a diverging final, and the key
meta-property: the memoized exploration and a naive order-enumerating
oracle (``use_memoization=False``) agree on the determinism verdict
and produce concretely-validating witnesses.
"""

import random
import sys
from pathlib import Path as OsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import (
    DeterminismOptions,
    check_determinism,
)
from repro.core.pipeline import Rehearsal
from repro.corpus import load_source
from repro.digraph import DiGraph
from repro.errors import AnalysisBudgetExceeded
from repro.fs import (
    ERR,
    ID,
    Path,
    creat,
    dir_,
    emptydir_,
    eval_expr,
    file_,
    ite,
    mkdir,
    rm,
    seq,
)
from repro.logic.terms import TermBank
from repro.resources import guarded_mkdir
from repro.smt.encoder import apply_expr
from repro.smt.state import initial_state
from repro.smt.values import PathDomains

sys.path.insert(0, str(OsPath(__file__).resolve().parents[1] / "benchmarks"))
from harness import (  # noqa: E402
    conflicting_write,
    fig13_lattice_bound,
    synthetic_conflict_graph,
    synthetic_deterministic_graph,
)

#: The order-enumerating oracle: no memoization and no reductions, so
#: the exploration is exactly the tree of all linearizations.
NAIVE = DeterminismOptions(
    use_memoization=False,
    use_commutativity=False,
    use_pruning=False,
    use_elimination=False,
)


def build_graph(programs, edges=()):
    g = DiGraph()
    g.add_nodes_from(programs)
    g.add_edges_from(edges)
    return g, programs


def assert_witness_diverges(result, programs):
    """A non-deterministic verdict must come with a concretely
    validating witness: the two orders genuinely differ on it."""
    assert result.witness_fs is not None
    assert result.witness_orders is not None
    order1, order2 = result.witness_orders
    e1 = seq(*[programs[n] for n in order1])
    e2 = seq(*[programs[n] for n in order2])
    assert eval_expr(e1, result.witness_fs) != eval_expr(
        e2, result.witness_fs
    )


class TestFingerprints:
    def _state(self):
        bank = TermBank()
        exprs = [conflicting_write("/shared", "a")]
        domains = PathDomains.for_exprs(exprs)
        return bank, domains, initial_state(bank, domains)

    def test_fingerprint_is_cached(self):
        _, _, state = self._state()
        assert state.fingerprint() is state.fingerprint()

    def test_same_program_same_fingerprint(self):
        """apply_expr is deterministic over a hash-consing bank, so
        re-applying the same program yields a distinct state object
        with an identical fingerprint — the property the memo key
        relies on."""
        bank, _, state = self._state()
        expr = conflicting_write("/shared", "a")
        s1 = apply_expr(bank, state, expr)
        s2 = apply_expr(bank, state, expr)
        assert s1 is not s2
        assert s1.fingerprint() == s2.fingerprint()

    def test_different_content_different_fingerprint(self):
        bank = TermBank()
        e1 = conflicting_write("/shared", "a")
        e2 = conflicting_write("/shared", "b")
        domains = PathDomains.for_exprs([e1, e2])
        init = initial_state(bank, domains)
        assert (
            apply_expr(bank, init, e1).fingerprint()
            != apply_expr(bank, init, e2).fingerprint()
        )

    def test_initial_state_differs_from_written_state(self):
        bank, _, state = self._state()
        after = apply_expr(
            bank, state, conflicting_write("/shared", "a")
        )
        assert state.fingerprint() != after.fingerprint()


def assert_stops_at_first_divergence(result, programs):
    """Eager racing on the non-deterministic Fig. 13 graph: the second
    final the walk reaches already diverges from the first, so
    exploration stops with exactly two distinct finals."""
    assert not result.deterministic
    assert result.stats.distinct_finals == 2
    assert result.stats.sat_queries == 1
    assert_witness_diverges(result, programs)


class TestMemoizedExploration:
    def test_fig13_collapses_to_state_lattice(self):
        """n unordered conflicting writers then one final writer:
        states are (subset, last writer) pairs, so branches stay on
        the subset/state lattice — far under the sum_k n!/(n-k)!
        order tree — and every interleaving funnels into one final."""
        g, p = synthetic_deterministic_graph(4)
        result = check_determinism(g, p)
        stats = result.stats
        assert result.deterministic
        assert stats.branches_explored == fig13_lattice_bound(4) + 4  # 56
        assert stats.memo_hits > 0
        assert stats.states_merged > 0
        assert stats.distinct_finals == 1
        g, p = synthetic_conflict_graph(4)
        assert_stops_at_first_divergence(check_determinism(g, p), p)

    def test_dedup_never_drops_the_diverging_final(self):
        """Deduplication by fingerprint can only merge symbolically
        identical states, so a genuinely diverging final always
        survives to the SAT loop with a witness order attached — even
        when the walk merges interleavings before reaching it."""
        g, p = synthetic_deterministic_graph(3)
        p = dict(p)
        # An unordered late writer: its own subtree funnels into one
        # final (memo hits), and the divergence only shows once
        # another resource is scheduled first.
        p["late"] = conflicting_write("/shared", "late")
        g.add_node("late")
        result = check_determinism(g, p)
        assert not result.deterministic
        assert result.stats.distinct_finals == 2
        assert result.stats.memo_hits > 0
        assert_witness_diverges(result, p)
        g, p = synthetic_conflict_graph(3)
        assert_stops_at_first_divergence(check_determinism(g, p), p)

    def test_identical_writers_merge_without_any_sat_query(self):
        """Two writers of the *same* content semantically commute but
        syntactically conflict: every interleaving converges to one
        final state, so determinism is proved by dedup alone — the
        solver is never consulted."""
        g, p = build_graph(
            {
                "a": conflicting_write("/shared", "same"),
                "b": conflicting_write("/shared", "same"),
            }
        )
        result = check_determinism(g, p)
        assert result.deterministic
        assert result.stats.distinct_finals == 1
        assert result.stats.sat_queries == 0

    def test_deterministic_variant_converges_to_one_final(self):
        """The paper's hard Fig. 13 variant (a final writer ordered
        after all n): previously a full UNSAT proof over n! finals,
        now every interleaving funnels into the final writer's state
        and dedup leaves a single final."""
        g, p = synthetic_deterministic_graph(3)
        result = check_determinism(
            g, p, DeterminismOptions(max_branches=500_000)
        )
        assert result.deterministic
        assert result.stats.distinct_finals == 1
        assert result.stats.sat_queries == 0
        assert result.stats.memo_hits > 0

    def test_ntp_nondet_dedup_keeps_the_bug_visible(self):
        """The §6 seeded bug: every pair of ntp-nondet interleavings
        diverges on /etc/ntp.conf — the divergence *is* the bug — so
        the state DAG never converges (zero memo hits is correct
        here, not a regression) and both distinct finals reach the
        solver."""
        tool = Rehearsal()
        graph, programs = tool.compile(load_source("ntp-nondet"))
        result = check_determinism(graph, programs)
        assert not result.deterministic
        assert result.stats.distinct_finals == 2
        assert result.stats.memo_hits == 0
        assert result.race is not None
        assert_witness_diverges(result, programs)

    def test_budget_exception_carries_memo_stats(self):
        g, p = synthetic_deterministic_graph(6)
        options = DeterminismOptions(
            max_branches=100,
            use_pruning=False,
            use_elimination=False,
        )
        with pytest.raises(AnalysisBudgetExceeded) as info:
            check_determinism(g, p, options)
        exc = info.value
        assert exc.branches > 100
        assert exc.memo_hits > 0
        assert exc.states_merged > 0
        assert "memo hits" in str(exc)

    def test_naive_mode_explores_the_order_tree(self):
        """use_memoization=False restores the order-tree walk: one
        final per linearization, no merges."""
        g, p = synthetic_deterministic_graph(4)
        result = check_determinism(g, p, NAIVE)
        stats = result.stats
        assert result.deterministic
        # sum_k 4!/(4-k)! = 4 + 12 + 24 + 24, then "final" once per
        # linearization of the writers.
        assert stats.branches_explored == 64 + 24
        assert stats.memo_hits == 0
        assert stats.distinct_finals == 24
        g, p = synthetic_conflict_graph(4)
        assert_stops_at_first_divergence(check_determinism(g, p, NAIVE), p)


def random_manifest(rng):
    """A random small manifest mixing the three regimes: commuting
    resources (guarded mkdirs, private-path writes), conflicting
    resources (overwrite-style writers to shared paths), and
    DAG-ordered subsets (random edges)."""
    shared = ["/shared", "/etc"]
    private = ["/a", "/b", "/c"]
    n = rng.randint(2, 4)
    programs = {}
    for i in range(n):
        kind = rng.randrange(5)
        if kind == 0:
            programs[f"r{i}"] = conflicting_write(
                rng.choice(shared), rng.choice("xyz")
            )
        elif kind == 1:
            target = Path.of(rng.choice(shared))
            programs[f"r{i}"] = ite(
                file_(target), ID, mkdir(str(target))
            )
        elif kind == 2:
            programs[f"r{i}"] = creat(
                rng.choice(private), rng.choice("xy")
            )
        elif kind == 3:
            target = Path.of(rng.choice(shared + private))
            programs[f"r{i}"] = ite(file_(target), rm(str(target)), ID)
        else:
            programs[f"r{i}"] = ID
    names = list(programs)
    edges = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if rng.random() < 0.25:
                edges.append((names[i], names[j]))
    return build_graph(programs, edges)


class TestSingleOrder:
    """A frontier that never branches has one order and one final, so
    the check returns from a replay of the frontier over the
    remaining-sets, with no symbolic state, and reports what the walk
    would have."""

    def test_irc_fixed_is_proved_without_the_walk(self, monkeypatch):
        from repro.analysis.determinism import _Explorer

        def no_walk(self, bank, init):
            raise AssertionError("the symbolic walk ran")

        monkeypatch.setattr(_Explorer, "walk", no_walk)
        graph, programs = Rehearsal().compile(load_source("irc-fixed"))
        stats = check_determinism(graph, programs).stats
        assert (
            stats.branches_explored,
            stats.distinct_finals,
            stats.memo_hits,
            stats.sat_queries,
            stats.modeled_paths,
        ) == (5, 1, 0, 0, 33)

    def test_chain_counts_and_budget_match_the_walk(self):
        programs = {f"w{i}": creat("/f", str(i)) for i in range(4)}
        edges = [(f"w{i}", f"w{i + 1}") for i in range(3)]
        g = DiGraph()
        g.add_nodes_from(programs)
        g.add_edges_from(edges)
        options = dict(use_elimination=False, use_pruning=False)
        result = check_determinism(g, programs, DeterminismOptions(**options))
        assert result.deterministic
        assert result.stats.branches_explored == 4
        assert result.stats.distinct_finals == 1
        # The walk checks the budget before each of its 4 expansions,
        # with 0..3 branches spent; so does the replay.
        check_determinism(
            g, programs, DeterminismOptions(max_branches=3, **options)
        )
        with pytest.raises(AnalysisBudgetExceeded):
            check_determinism(
                g, programs, DeterminismOptions(max_branches=2, **options)
            )

    def test_a_branching_frontier_still_walks(self):
        g, p = synthetic_conflict_graph(2)
        result = check_determinism(g, p)
        assert not result.deterministic
        assert result.stats.sat_queries == 1


class TestOracleAgreement:
    """The memoized DAG exploration and the naive order-enumerating
    oracle must agree on the verdict, and both must exhibit concretely
    diverging witnesses for non-deterministic manifests."""

    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=40, deadline=None)
    def test_memoized_agrees_with_naive_oracle(self, seed):
        rng = random.Random(seed)
        g, p = random_manifest(rng)
        memoized = check_determinism(g, p)
        naive = check_determinism(g, p, NAIVE)
        assert memoized.deterministic == naive.deterministic, (
            f"memoized={memoized.deterministic} "
            f"naive={naive.deterministic} for {p}"
        )
        # The memoized walk can only ever be smaller.
        assert (
            memoized.stats.branches_explored
            <= naive.stats.branches_explored
        )
        if not memoized.deterministic:
            assert_witness_diverges(memoized, p)
            assert_witness_diverges(naive, p)

    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=15, deadline=None)
    def test_memoization_toggle_alone_preserves_verdict(self, seed):
        """Isolate the memo: identical options except
        use_memoization, so any disagreement is the memo's fault
        rather than a reduction's."""
        rng = random.Random(seed)
        g, p = random_manifest(rng)
        on = check_determinism(g, p, DeterminismOptions())
        off = check_determinism(
            g, p, DeterminismOptions(use_memoization=False)
        )
        assert on.deterministic == off.deterministic


def settled_manifest(rng):
    """A random graph where an ancestor ensures /etc and its
    descendants read it: the shape ``conflict_matrix`` refines.  The
    ensurer sometimes ensures /etc in one ``If`` arm only, and a
    resource sometimes writes /etc, so both exclusions are drawn."""
    etc = Path.of("/etc")
    ensurers = [
        guarded_mkdir(etc),
        ite(file_(Path.of("/q")), guarded_mkdir(etc), ID),
        ite(file_(etc), ERR, guarded_mkdir(etc)),
    ]
    others = [
        creat("/etc/key", "k"),
        seq(guarded_mkdir(etc), creat("/etc/pkg.conf", "p")),
        ite(dir_(etc), ID, ERR),
        conflicting_write("/etc/key", "w"),
        ite(emptydir_(etc), rm("/etc"), ID),
        seq(guarded_mkdir(etc), guarded_mkdir(Path.of("/etc/d"))),
    ]
    programs = {}
    for i in range(rng.randint(1, 2)):
        programs[f"e{i}"] = rng.choice(ensurers)
    ensurer_names = list(programs)
    for i in range(rng.randint(2, 3)):
        programs[f"r{i}"] = rng.choice(others)
    names = list(programs)
    edges = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ensurer = a in ensurer_names and b not in ensurer_names
            if rng.random() < (0.6 if ensurer else 0.2):
                edges.append((a, b))
    return build_graph(programs, edges)


class TestSettledDirectories:
    @given(st.integers(min_value=0, max_value=20_000))
    @settings(max_examples=60, deadline=None)
    def test_verdicts_match_without_commutativity(self, seed):
        g, p = settled_manifest(random.Random(seed))
        reduced = check_determinism(g, p)
        full = check_determinism(
            g, p, DeterminismOptions(use_commutativity=False)
        )
        assert reduced.deterministic == full.deterministic, p
        if not reduced.deterministic:
            assert_witness_diverges(reduced, p)


class TestConflictCounters:
    def test_incremental_conflicts_mirror_solver_lifetime(self):
        """The accumulators mirror the shared solver's lifetime
        totals and each QueryResult reports its own per-call delta —
        summing lifetime snapshots would double-count (a second
        identical check reuses learned clauses and must report ~zero
        new conflicts, not the running total)."""
        from repro.smt.query import IncrementalQuery

        bank = TermBank()
        # Pigeonhole 3-into-2: small but needs genuine search.
        holes = [[bank.var(f"p{i}h{j}") for j in range(2)] for i in range(3)]
        query = IncrementalQuery(bank)
        for row in holes:
            query.assert_term(bank.or_(*row))
        for j in range(2):
            for i in range(3):
                for k in range(i + 1, 3):
                    query.assert_term(
                        bank.not_(bank.and_(holes[i][j], holes[k][j]))
                    )
        first = query.check()
        second = query.check()
        assert not first.sat and not second.sat
        assert query.conflicts == query._solver.conflicts
        assert first.conflicts + second.conflicts == query.conflicts
        assert second.conflicts <= first.conflicts


class TestProfileFlag:
    def test_verify_profile_prints_phase_split(self, tmp_path, capsys):
        from repro.core.cli import main

        manifest = tmp_path / "m.pp"
        manifest.write_text(
            "file { '/etc/motd': content => 'hi' }", encoding="utf8"
        )
        code = main(["verify", str(manifest), "--profile"])
        out = capsys.readouterr().out
        assert code == 0
        assert "determinacy phase split" in out
        assert "explore" in out and "solve" in out
        assert "cumulative" in out  # the cProfile table

    def test_verify_without_profile_is_quiet(self, tmp_path, capsys):
        from repro.core.cli import main

        manifest = tmp_path / "m.pp"
        manifest.write_text(
            "file { '/etc/motd': content => 'hi' }", encoding="utf8"
        )
        main(["verify", str(manifest)])
        out = capsys.readouterr().out
        assert "determinacy phase split" not in out


class TestSchemaStats:
    SOURCE_NONDET = """
file { '/etc/app.conf': content => 'a' }
file { '/etc/app.conf2': content => 'b' }
"""

    def test_manifest_result_carries_exploration_stats(self):
        from repro.service.schema import ManifestResult

        tool = Rehearsal()
        report = tool.verify(load_source("ntp-nondet"), name="ntp")
        row = ManifestResult.from_report(report)
        stats = report.determinism.stats
        assert row.branches_explored == stats.branches_explored
        assert row.memo_hits == stats.memo_hits
        assert row.states_merged == stats.states_merged
        assert row.distinct_finals == stats.distinct_finals
        assert row.distinct_finals > 0
        restored = ManifestResult.from_dict(row.to_dict())
        assert restored == row

    def test_schema_version_bumped_for_exploration_fields(self):
        # v2 added the exploration stats; v3 added the lint block;
        # v4 added the solver_backend label; v5 added the
        # incremental-reuse counters.
        from repro.service.schema import SCHEMA_VERSION

        assert SCHEMA_VERSION == 5

    def test_cache_key_rotates_with_schema_version(self, monkeypatch):
        import repro.service.cache as cache_mod

        before = cache_mod.cache_key("file { '/f': }")
        monkeypatch.setattr(
            cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1
        )
        after = cache_mod.cache_key("file { '/f': }")
        assert before != after

    def test_cache_key_rotates_with_memoization_toggle(self):
        from repro.service.cache import cache_key

        src = "file { '/f': }"
        assert cache_key(src, DeterminismOptions()) != cache_key(
            src, DeterminismOptions(use_memoization=False)
        )
