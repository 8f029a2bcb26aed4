"""Tests for race localization by witness replay
(repro.analysis.localize).

Pins the localized racing resource pair for all six non-deterministic
corpus benchmarks — the diagnostics ``rehearsal verify --explain`` and
the batch JSON rows surface — and checks that localization makes no
SAT call of its own.
"""

import pytest

from repro.analysis import DeterminismOptions, check_determinism
from repro.core.pipeline import Rehearsal
from repro.core.report import render_determinism, render_explanation
from repro.corpus import load_source
from repro.digraph import DiGraph
from repro.fs import ERROR, ID, Path, creat, file_, ite, mkdir, none_, rm, seq
from repro.sat.solver import Solver

#: benchmark -> (racing pair, contended path) as seeded in the corpus
#: (see repro/corpus/__init__.py bug descriptions).
EXPECTED_RACES = {
    "dns-nondet": (
        {"File['/etc/dnsmasq.d/local.conf']", "Package['dnsmasq']"},
        "/etc/dnsmasq.d",
    ),
    "irc-nondet": (
        {"Ssh_authorized_key['ircops@admin']", "User['ircops']"},
        "/home/ircops",
    ),
    "logstash-nondet": (
        {"File['/etc/logstash/conf.d/10-pipeline.conf']", "Package['logstash']"},
        "/etc/logstash/conf.d",
    ),
    "ntp-nondet": (
        {"File['/etc/ntp.conf']", "Package['ntp']"},
        "/etc/ntp.conf",
    ),
    "rsyslog-nondet": (
        {"File['/etc/rsyslog.d/10-forward.conf']", "Package['rsyslog']"},
        "/etc/rsyslog.d",
    ),
    "xinetd-nondet": (
        {"File['/etc/xinetd.conf']", "Package['xinetd']"},
        "/etc/xinetd.conf",
    ),
}


def _check(name):
    tool = Rehearsal()
    graph, programs = tool.compile(load_source(name))
    return check_determinism(graph, programs, DeterminismOptions())


class TestCorpusRaces:
    @pytest.mark.parametrize("name", sorted(EXPECTED_RACES))
    def test_localized_pair_is_the_seeded_bug(self, name):
        result = _check(name)
        assert not result.deterministic
        race = result.race
        assert race is not None, f"{name}: no race localized"
        expected_pair, expected_path = EXPECTED_RACES[name]
        assert {str(race.resource_a), str(race.resource_b)} == expected_pair
        assert str(race.path) == expected_path
        # The corpus bugs are all missing-dependency errors: one order
        # errors where the other succeeds, so no path is implicated.
        assert race.ok_divergence
        assert race.core_paths == []

    def test_deterministic_manifest_has_no_race(self):
        tool = Rehearsal()
        graph, programs = tool.compile(load_source("ntp-fixed"))
        result = check_determinism(graph, programs, DeterminismOptions())
        assert result.deterministic
        assert result.race is None


def set_file(path, content):
    """Last-writer-wins file write (overwrite semantics)."""
    p = Path.of(path)
    return ite(
        file_(p),
        seq(rm(p), creat(p, content)),
        ite(
            none_(p),
            creat(p, content),
            seq(rm(p), creat(p, content)),
        ),
    )


class TestSyntheticRaces:
    def test_content_race_core_names_the_contended_path(self):
        """Two unordered writers of different content to one path: both
        orders succeed, so the unsat core must implicate the path's
        final value, not the error status."""
        programs = {
            "a": set_file("/shared", "from-a"),
            "b": set_file("/shared", "from-b"),
        }
        graph = DiGraph()
        graph.add_nodes_from(programs)
        result = check_determinism(graph, programs, DeterminismOptions())
        assert not result.deterministic
        race = result.race
        assert race is not None
        assert {race.resource_a, race.resource_b} == {"a", "b"}
        assert str(race.path) == "/shared"
        assert Path.of("/shared") in race.core_paths
        assert not race.ok_divergence

    def test_error_divergence_implicates_no_path(self):
        """A writer into a directory another resource creates: run
        first, the writer errors on the missing parent, so exactly one
        order errors on the witness and no path is implicated."""
        programs = {
            "dir": ite(none_(Path.of("/d")), mkdir(Path.of("/d")), ID),
            "file": set_file("/d/f", "x"),
        }
        graph = DiGraph()
        graph.add_nodes_from(programs)
        result = check_determinism(graph, programs, DeterminismOptions())
        assert not result.deterministic
        race = result.race
        assert race is not None
        assert {race.resource_a, race.resource_b} == {"dir", "file"}
        assert race.ok_divergence
        assert race.core_paths == []
        outcomes = result.witness_outcomes
        assert sum(o is ERROR for o in outcomes) == 1

    def test_three_writers_localize_some_racing_pair(self):
        programs = {
            f"w{i}": set_file("/shared", f"c{i}") for i in range(3)
        }
        graph = DiGraph()
        graph.add_nodes_from(programs)
        result = check_determinism(graph, programs, DeterminismOptions())
        assert not result.deterministic
        race = result.race
        assert race is not None
        assert race.resource_a != race.resource_b
        assert str(race.path) == "/shared"

    def test_ordered_pair_not_blamed(self):
        """With a dependency edge between the only two writers the
        manifest is deterministic — nothing to localize."""
        programs = {
            "a": set_file("/shared", "one"),
            "b": set_file("/shared", "two"),
        }
        graph = DiGraph()
        graph.add_nodes_from(programs)
        graph.add_edge("a", "b")
        result = check_determinism(graph, programs, DeterminismOptions())
        assert result.deterministic
        assert result.race is None


def _count_solves(monkeypatch):
    calls = []
    solve = Solver.solve

    def counting(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counting)
    return calls


class TestNoSolveAfterTheVerdict:
    """Localization replays the witness: the SAT call that finds the
    divergence is the last one a NO verdict makes."""

    @pytest.mark.parametrize("name", ["ntp-nondet", "xinetd-nondet"])
    def test_no_verdict_solves_once(self, name, monkeypatch):
        calls = _count_solves(monkeypatch)
        # Store off: a served result would make no solve at all.
        graph, programs = Rehearsal().compile(load_source(name))
        result = check_determinism(
            graph, programs, DeterminismOptions(incremental=False)
        )
        assert not result.deterministic and result.race is not None
        assert result.stats.sat_queries == 1
        assert len(calls) == 1

    def test_no_concrete_divergence_falls_back_to_static_ranking(
        self, monkeypatch
    ):
        """Without elimination, a witness that shows no concrete
        divergence (only an encoding bug can produce one) still names
        a pair, from the footprints alone and with no further solve."""
        import repro.analysis.determinism as determinism

        monkeypatch.setattr(
            determinism, "_diverging_orders", lambda *args: None
        )
        calls = _count_solves(monkeypatch)
        programs = {
            "a": set_file("/shared", "from-a"),
            "b": set_file("/shared", "from-b"),
        }
        graph = DiGraph()
        graph.add_nodes_from(programs)
        result = check_determinism(
            graph,
            programs,
            DeterminismOptions(use_elimination=False, incremental=False),
        )
        assert not result.deterministic
        assert result.witness_outcomes is None
        race = result.race
        assert {race.resource_a, race.resource_b} == {"a", "b"}
        assert str(race.path) == "/shared"
        assert race.core_paths == [] and not race.ok_divergence
        assert len(calls) == 1


class TestWritersByPath:
    def test_contended_path_has_two_writers(self):
        """prune_manifest's writers map flags the contention candidate
        the localizer later names (the ntp Fig. 3a pattern: package
        and config file both write /etc/ntp.conf)."""
        from repro.analysis.pruning import prune_manifest

        tool = Rehearsal()
        _, programs = tool.compile(load_source("ntp-nondet"))
        _, report = prune_manifest(list(programs.values()))
        writers = report.writers_by_path
        assert len(writers[Path.of("/etc/ntp.conf")]) == 2

    def test_pruned_paths_never_multi_writer(self):
        from repro.analysis.pruning import prune_manifest

        tool = Rehearsal()
        for name in ("ntp-nondet", "irc-nondet", "hosting"):
            _, programs = tool.compile(load_source(name))
            _, report = prune_manifest(list(programs.values()))
            for path in report.pruned_paths:
                assert len(report.writers_by_path.get(path, [])) <= 1


class TestRendering:
    def test_report_names_the_race(self):
        result = _check("ntp-nondet")
        text = render_determinism(result)
        assert "Race localized" in text
        assert "File['/etc/ntp.conf']" in text
        assert "Package['ntp']" in text

    def test_explanation_leads_with_the_race(self):
        tool = Rehearsal()
        source = load_source("ntp-nondet")
        graph, programs = tool.compile(source)
        result = check_determinism(graph, programs, DeterminismOptions())
        text = render_explanation(result, programs)
        assert text.splitlines()[0].startswith(
            "Race localized (witness replay): "
        )
        assert "race on /etc/ntp.conf" in text

    def test_batch_json_rows_carry_the_race(self):
        from repro.service.schema import ManifestResult

        tool = Rehearsal()
        report = tool.verify(load_source("ntp-nondet"), name="ntp-nondet")
        row = ManifestResult.from_report(report)
        assert row.race_pair is not None
        assert set(row.race_pair) == {"File['/etc/ntp.conf']", "Package['ntp']"}
        assert row.race_path == "/etc/ntp.conf"
        # Round-trips through the wire/cache dict form.
        assert ManifestResult.from_dict(row.to_dict()).race_pair == row.race_pair
