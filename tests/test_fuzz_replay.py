"""Single-reproducer replay: the API and ``rehearsal fuzz --replay``."""

from pathlib import Path

import pytest

from repro.core.cli import main as cli_main
from repro.testing.replay import replay_file

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "tests" / "regressions"
REPRODUCER = CORPUS / "clean-seed42-case16.pp"


class TestReplayFile:
    def test_committed_reproducer_replays_clean(self):
        result = replay_file(REPRODUCER)
        assert result.ok, result.problems
        # The oracle seed defaults to the header's.
        assert result.oracle_seed == result.header.seed == 42
        assert result.outcome.agreed

    def test_oracle_seed_override_still_replays_clean(self):
        result = replay_file(REPRODUCER, oracle_seed=1234)
        assert result.ok, result.problems
        assert result.oracle_seed == 1234

    def test_missing_file_is_a_problem_not_a_crash(self, tmp_path):
        result = replay_file(tmp_path / "gone.pp")
        assert not result.ok
        assert "cannot read" in result.problems[0]

    def test_bad_header_is_a_problem_not_a_crash(self, tmp_path):
        path = tmp_path / "bad.pp"
        path.write_text('file {"/tmp/x": content => "1" }\n')
        result = replay_file(path)
        assert not result.ok
        assert "first line" in result.problems[0]

    def test_tampered_pinned_verdict_fails_the_replay(self, tmp_path):
        text = REPRODUCER.read_text(encoding="utf8")
        tampered = text.replace(
            "# expected-deterministic: false",
            "# expected-deterministic: true",
        )
        assert tampered != text
        path = tmp_path / REPRODUCER.name
        path.write_text(tampered, encoding="utf8")
        result = replay_file(path)
        assert not result.ok
        assert any(
            "determinism verdict" in problem
            for problem in result.problems
        )

    def test_to_dict_is_json_shaped(self):
        payload = replay_file(REPRODUCER).to_dict()
        assert payload["ok"] is True
        assert payload["outcome"]["disagreements"] == []


class TestCli:
    def test_replay_exits_zero_on_clean_replay(self, capsys):
        code = cli_main(["fuzz", "--replay", str(REPRODUCER)])
        assert code == 0
        out = capsys.readouterr().out
        assert "still fixed" in out

    def test_replay_with_oracle_seed(self, capsys):
        code = cli_main(
            [
                "fuzz",
                "--replay",
                str(REPRODUCER),
                "--oracle-seed",
                "7",
            ]
        )
        assert code == 0
        assert "oracle seed 7" in capsys.readouterr().out

    def test_replay_missing_file_is_a_usage_error(self, tmp_path):
        code = cli_main(
            ["fuzz", "--replay", str(tmp_path / "gone.pp")]
        )
        assert code == 2

    def test_oracle_seed_without_replay_is_a_usage_error(self, capsys):
        code = cli_main(["fuzz", "--oracle-seed", "7", "--cases", "1"])
        assert code == 2
        assert "--replay" in capsys.readouterr().err

    def test_failed_replay_exits_one(self, tmp_path, capsys):
        text = REPRODUCER.read_text(encoding="utf8").replace(
            "# expected-deterministic: false",
            "# expected-deterministic: true",
        )
        path = tmp_path / "tampered.pp"
        path.write_text(text, encoding="utf8")
        code = cli_main(["fuzz", "--replay", str(path)])
        assert code == 1
        assert "REPLAY FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.pp")), ids=lambda p: p.stem
    )
    def test_every_committed_reproducer_replays_clean(self, path, capsys):
        """The manual tool confirms each file the suite pins, so
        ``rehearsal fuzz --replay`` is a faithful way to re-check one."""
        assert cli_main(["fuzz", "--replay", str(path)]) == 0
        assert "still fixed" in capsys.readouterr().out
