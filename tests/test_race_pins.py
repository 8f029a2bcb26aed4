"""The race localization of a fixed fuzz stream is pinned exactly.

``tests/data/race-pins.json`` holds, for ``CaseGenerator(42)`` cases
0–299 and ``CaseGenerator(7)`` cases 0–599, what the determinacy
check reports on each generated catalog: the verdict, the racing
resource pair and the contended path.  A change to how races are
localized must leave every entry as it is.  Tier-1 replays the
seed-42 slice; the full stream replays with

    PYTHONPATH=src python tests/test_race_pins.py --check

and a change that is meant to move a race re-records the file with

    PYTHONPATH=src python tests/test_race_pins.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "data" / "race-pins.json"

#: master seed -> number of cases pinned from the start of its stream.
STREAMS = {42: 300, 7: 600}

#: The stream tier-1 replays (the other one replays in CI).
TIER1_SEED = 42


def race_view(source):
    """``[deterministic, race_pair, race_path]`` for one catalog."""
    from repro.core.pipeline import Rehearsal

    result = Rehearsal().check_determinism(source)
    race = result.race
    if race is None:
        return [result.deterministic, None, None]
    return [
        result.deterministic,
        [str(race.resource_a), str(race.resource_b)],
        str(race.path) if race.path is not None else None,
    ]


def measure(seed):
    from repro.testing import CaseGenerator

    generator = CaseGenerator(seed)
    return [race_view(case.source) for case in generator.cases(STREAMS[seed])]


def render(pins):
    """One stream per key and one case per line."""
    blocks = []
    for seed, views in pins.items():
        lines = ",\n".join(f"    {json.dumps(view)}" for view in views)
        blocks.append(f"  {json.dumps(seed)}: [\n{lines}\n  ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def mismatches(seed):
    pinned = json.loads(PINS.read_text())[str(seed)]
    fresh = measure(seed)
    assert len(fresh) == len(pinned)
    return [
        (case_id, want, got)
        for case_id, (want, got) in enumerate(zip(pinned, fresh))
        if want != got
    ]


def test_pins_cover_the_declared_streams():
    pinned = json.loads(PINS.read_text())
    assert {int(seed): len(views) for seed, views in pinned.items()} == STREAMS


def test_seed_42_races_match_the_pin():
    assert mismatches(TIER1_SEED) == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        bad = [(seed, *m) for seed in STREAMS for m in mismatches(seed)]
        for seed, case_id, want, got in bad:
            print(f"seed {seed} case {case_id}: pinned {want}, got {got}")
        print(f"{len(bad)} of {sum(STREAMS.values())} cases differ")
        sys.exit(1 if bad else 0)
    PINS.write_text(
        render({str(seed): measure(seed) for seed in STREAMS})
    )
