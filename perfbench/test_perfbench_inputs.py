"""Self-test of the benchmark's inputs and metric tables.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
checkout root.  Inputs must be a pure function of the workload seed:
the same seed gives byte-identical manifests, edit scripts, arrival
schedules and request mixes, and a different seed gives different ones.
"""

import json
from pathlib import Path

import pytest

from perfbench import inputs

ROOT = Path(__file__).resolve().parent.parent


def _all_inputs(seed: int) -> bytes:
    """Every generated input of every workload, serialized."""
    edits = {
        stream: [(e.base, e.source, e.token) for e in inputs.edit_script(seed, stream, 30)]
        for stream in ("cli", "daemon-capacity", "daemon-light", "daemon-heavy")
    }
    record = {
        "corpus_orders": [inputs.corpus_order(seed, index) for index in range(5)],
        "edits": edits,
        "arrivals": {
            phase: inputs.arrival_schedule(seed, phase, rate, 10.0)
            for phase, rate in (("light", 15.0), ("heavy", 50.0))
        },
        "mixes": {phase: inputs.request_mix(seed, phase, 200) for phase in ("capacity", "light", "heavy")},
        "hash_seeds": [inputs.hash_seed(seed, "cli-step", step) for step in range(30)],
    }
    return json.dumps(record, sort_keys=True).encode("utf8")


def test_same_seed_gives_identical_inputs():
    assert _all_inputs(7) == _all_inputs(7)


@pytest.mark.parametrize("other", [8, 1007])
def test_different_seed_gives_different_inputs(other):
    first, second = json.loads(_all_inputs(7)), json.loads(_all_inputs(other))
    for part in first:
        assert first[part] != second[part], part


def test_edits_change_exactly_one_content_string():
    for edit in inputs.edit_script(3, "cli", len(inputs.EDIT_BASES)):
        base = inputs.load_source(edit.base)
        assert edit.source != base
        assert edit.source.replace(f"# edit {edit.token}\\n", "", 1) == base


def test_every_edit_base_recurs_each_cycle():
    cycle = len(inputs.EDIT_BASES)
    bases = [e.base for e in inputs.edit_script(5, "cli", 2 * cycle)]
    assert sorted(bases[:cycle]) == sorted(inputs.EDIT_BASES)
    assert sorted(bases[cycle:]) == sorted(inputs.EDIT_BASES)
    assert {"jpa", "amavis"} <= set(inputs.EDIT_BASES)


def test_request_mix_shares_are_exact_per_block():
    mix = inputs.request_mix(11, "light", 1000)
    kinds = [kind for kind, _ in mix]
    assert (kinds.count("get"), kinds.count("repost"), kinds.count("edit")) == (700, 200, 100)


def test_arrivals_hold_the_offered_rate():
    times = inputs.arrival_schedule(4, "heavy", 50.0, 10.0)
    assert len(times) == 500
    assert all(0.0 <= t < 10.0 for t in times)


def test_expected_verdicts_come_from_the_corpus_inventory():
    assert inputs.expected_verdict("ntp-nondet") == (False, None)
    assert inputs.expected_verdict("ntp-fixed") == (True, True)
    assert inputs.expected_verdict("jpa") == (True, True)


def test_benchmark_json_matches_the_metric_tables():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    from perfbench import run

    spec = json.loads(spec_path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
