"""Per-field header validation and the corpus guard in tools/.

``validate_header`` is exercised directly (it is the engine); the
``tools/check_regressions.py`` guard is exercised end-to-end — green
on the shipped corpus, red on seeded corruption.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.testing.regressions import (
    KNOWN_DISAGREEMENTS,
    validate_header,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_regressions.py"
CORPUS = REPO_ROOT / "tests" / "regressions"

GOOD_HEADER = """\
# rehearsal-fuzz reproducer
# seed: 42
# case-id: 7
# generator-version: 1
# bug-class: shared-write
# found-by: nightly-fuzz
# disagreement: missed_nondet
# expected-deterministic: false
# expected-idempotent: none

file {"/tmp/x": content => "1" }
"""


class TestValidateHeader:
    def test_good_header_is_clean(self):
        assert validate_header(GOOD_HEADER, "good.pp") == []

    def test_every_known_disagreement_is_accepted(self):
        for kind in KNOWN_DISAGREEMENTS:
            text = GOOD_HEADER.replace("missed_nondet", kind)
            assert validate_header(text, "x.pp") == []

    @pytest.mark.parametrize(
        "mutation,expected",
        [
            (("# seed: 42", "# seed: forty-two"), "non-negative integer"),
            (("# case-id: 7\n", ""), "missing required key 'case-id'"),
            (
                ("# generator-version: 1", "# generator-version: -1"),
                "generator-version must be",
            ),
            (
                ("missed_nondet", "made_up_kind"),
                "unknown disagreement",
            ),
            (
                ("# expected-deterministic: false",
                 "# expected-deterministic: maybe"),
                "true/false/none",
            ),
            (
                ("# found-by: nightly-fuzz\n", ""),
                "found-by",
            ),
        ],
    )
    def test_each_field_gets_its_own_message(self, mutation, expected):
        old, new = mutation
        text = GOOD_HEADER.replace(old, new)
        assert text != GOOD_HEADER
        problems = validate_header(text, "bad.pp")
        assert any(expected in p for p in problems), problems

    def test_missing_marker_short_circuits(self):
        problems = validate_header("file {}\n", "bad.pp")
        assert len(problems) == 1
        assert "first line" in problems[0]

    def test_duplicate_key_is_reported(self):
        text = GOOD_HEADER.replace(
            "# seed: 42", "# seed: 42\n# seed: 43"
        )
        problems = validate_header(text, "bad.pp")
        assert any("duplicate" in p for p in problems)

    def test_empty_body_is_reported(self):
        text = GOOD_HEADER.split("\n\n")[0] + "\n"
        problems = validate_header(text, "bad.pp")
        assert any("manifest body" in p for p in problems)

    def test_all_problems_reported_at_once(self):
        text = (
            "# rehearsal-fuzz reproducer\n"
            "# seed: x\n"
            "# disagreement: bogus\n"
        )
        problems = validate_header(text, "bad.pp")
        # seed, case-id, generator-version, disagreement,
        # expected-deterministic, found-by, body: one message each.
        assert len(problems) == 7


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_regressions_under_test", TOOL
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool_on_corpus_copy(tmp_path, monkeypatch, capsys):
    """The guard pointed at a private copy of the shipped corpus."""
    corpus = tmp_path / "regressions"
    corpus.mkdir()
    for source in CORPUS.glob("*.pp"):
        (corpus / source.name).write_text(
            source.read_text(encoding="utf8"), encoding="utf8"
        )
    module = load_tool()
    monkeypatch.setattr(module, "REGRESSION_DIR", corpus)
    monkeypatch.setattr(
        module,
        "_replay_parametrization",
        lambda: set(corpus.glob("*.pp")),
    )
    return module, corpus


class TestGuard:
    def test_green_on_the_shipped_corpus(self):
        proc = subprocess.run(
            [sys.executable, str(TOOL)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "regression corpus sound" in proc.stdout

    def test_red_on_a_corrupted_header(self, tool_on_corpus_copy):
        module, corpus = tool_on_corpus_copy
        victim = sorted(corpus.glob("*.pp"))[0]
        victim.write_text(
            victim.read_text(encoding="utf8").replace(
                "# seed: 42", "# seed: nope"
            ),
            encoding="utf8",
        )
        assert module.main() == 1

    def test_red_on_unknown_disagreement(self, tool_on_corpus_copy):
        module, corpus = tool_on_corpus_copy
        victim = sorted(corpus.glob("*.pp"))[0]
        victim.write_text(
            victim.read_text(encoding="utf8").replace(
                "# disagreement: missed_nondet",
                "# disagreement: gremlins",
            ),
            encoding="utf8",
        )
        assert module.main() == 1

    def test_red_on_a_stale_generator_version(
        self, tool_on_corpus_copy, capsys
    ):
        module, corpus = tool_on_corpus_copy
        victim = sorted(corpus.glob("*.pp"))[0]
        victim.write_text(
            victim.read_text(encoding="utf8").replace(
                "# generator-version: 1", "# generator-version: 999"
            ),
            encoding="utf8",
        )
        assert module.main() == 1
        err = capsys.readouterr().err
        assert f"{victim.name}: minted under generator v999" in err

    def test_red_on_a_body_that_does_not_parse(
        self, tool_on_corpus_copy, capsys
    ):
        module, corpus = tool_on_corpus_copy
        victim = sorted(corpus.glob("*.pp"))[0]
        victim.write_text(
            victim.read_text(encoding="utf8") + "\nfile { '/x':\n",
            encoding="utf8",
        )
        assert module.main() == 1
        assert f"{victim.name}: does not parse" in capsys.readouterr().err

    def test_red_on_a_reproducer_the_replay_test_skips(
        self, tool_on_corpus_copy, monkeypatch, capsys
    ):
        module, corpus = tool_on_corpus_copy
        skipped, *rest = sorted(corpus.glob("*.pp"))
        monkeypatch.setattr(
            module, "_replay_parametrization", lambda: set(rest)
        )
        assert module.main() == 1
        err = capsys.readouterr().err
        assert "not referenced by the replay test" in err
        assert skipped.name in err

    def test_red_when_the_replay_test_cannot_be_imported(
        self, tmp_path, monkeypatch, capsys
    ):
        module = load_tool()
        broken = tmp_path / "test_regressions.py"
        broken.write_text("raise ImportError('broken on purpose')\n")
        monkeypatch.setattr(module, "REPLAY_TEST", broken)
        assert module.main() == 1
        assert "cannot import test_regressions.py" in capsys.readouterr().err

    def test_red_on_an_empty_corpus(self, tool_on_corpus_copy, capsys):
        module, corpus = tool_on_corpus_copy
        for path in corpus.glob("*.pp"):
            path.unlink()
        assert module.main() == 1
        assert "holds no reproducers" in capsys.readouterr().err

    def test_red_when_the_corpus_directory_is_missing(
        self, tmp_path, monkeypatch, capsys
    ):
        module = load_tool()
        monkeypatch.setattr(module, "REGRESSION_DIR", tmp_path / "gone")
        assert module.main() == 1
        assert "does not exist" in capsys.readouterr().err
