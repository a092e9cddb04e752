"""The ``python -m repro run sanitize`` surface: harness driver and CLI.

Fast paths use an injected fake runner; real end-to-end replays go
through ``main()`` against a tiny scenario to prove the wiring.
"""

import json
import shlex

import pytest

from repro.common.errors import StateError
from repro.harness.cli import main
from repro.sanitizer.harness import run_sanitize
from repro.sanitizer.scenarios import Scenario, ScenarioOutcome

TINY = Scenario(
    workload="ysb", records=80, batch=32, keyspace=16, nodes=2, threads=2,
    epoch_bytes=32768, credits=4, workload_seed=5,
)


def _ok_runner(scenario):
    return ScenarioOutcome(scenario, checks={"event-time": 1}, horizon_s=1.0)


def _fail_above(threshold):
    def runner(scenario):
        outcome = ScenarioOutcome(scenario, horizon_s=1.0)
        if scenario.records >= threshold:
            outcome.failures.append(f"synthetic failure at {scenario.records}")
        return outcome
    return runner


def _repro_note(message: str, prefix: str) -> str:
    (note,) = [
        line for line in message.splitlines() if line.startswith(prefix)
    ]
    return note


def _replayed(note: str) -> Scenario:
    return Scenario.from_json(note.split("--set replay='")[1].rstrip("'"))


class TestRunSanitize:
    def test_clean_sweep_reports_zero_failures(self):
        lines = []
        report = run_sanitize(
            scenarios=4, seed=3, progress=lines.append, runner=_ok_runner
        )
        assert all(row["ok"] for row in report.rows)
        assert len(report.rows) == 4
        assert sum("PASS" in line for line in lines) == 4
        assert any("0 failures" in note for note in report.notes)
        # Rows replay the exact generator stream for seed 3.
        from repro.sanitizer.scenarios import generate_scenario

        assert Scenario(**report.rows[2]["scenario"]) == generate_scenario(3, 2)

    def test_failure_is_shrunk_and_gets_a_repro_command(self):
        lines = []
        with pytest.raises(StateError, match="1 of 1 sanitize scenarios failed") as info:
            run_sanitize(
                replay=TINY.to_json().replace('"records": 80', '"records": 320'),
                progress=lines.append, runner=_fail_above(100),
            )
        note = _repro_note(str(info.value), "repro (minimized):")
        minimized = _replayed(note)
        assert minimized.records <= 320 // 2
        assert any("shrunk 320 ->" in line for line in lines)

    def test_no_shrink_keeps_the_original_repro(self):
        with pytest.raises(StateError) as info:
            run_sanitize(
                replay=TINY.to_json(), shrink_failures=False,
                progress=None, runner=_fail_above(0),
            )
        assert _replayed(_repro_note(str(info.value), "repro:")) == TINY

    def test_replay_rejects_unknown_fields(self):
        with pytest.raises(Exception, match="unknown scenario fields"):
            run_sanitize(replay='{"bogus": 1}', progress=None, runner=_ok_runner)

    def test_progress_defaults_to_stderr(self, capsys):
        run_sanitize(replay=TINY.to_json(), runner=_ok_runner)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[1/1]" in captured.err and "PASS" in captured.err


class TestCli:
    def test_replay_end_to_end_exits_zero(self, capsys, tmp_path):
        """A real tiny scenario through the real runner and CLI."""
        code = main([
            "run", "sanitize", "--set", f"replay={TINY.to_json()}",
            "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "0 failures" in out
        assert (tmp_path / "sanitize.txt").exists()
        rows = json.loads((tmp_path / "sanitize.json").read_text())
        assert rows[0]["ok"] is True
        assert rows[0]["scenario"]["workload"] == "ysb"

    def test_printed_repro_command_runs_through_main(self, capsys):
        """The command a failure prints is a valid CLI invocation."""
        argv = shlex.split(TINY.repro_command())
        assert argv[:3] == ["python", "-m", "repro"]
        assert main(argv[3:]) == 0
        assert "0 failures" in capsys.readouterr().out

    def test_failing_sweep_exits_nonzero(self, capsys, monkeypatch, tmp_path):
        import repro.grid.suites as suites

        def fake_run_sanitize(**kwargs):
            return run_sanitize(
                replay=TINY.to_json(), progress=None,
                shrink_failures=False, runner=_fail_above(0),
            )

        monkeypatch.setitem(suites.PROTOCOLS, "sanitize", fake_run_sanitize)
        code = main(["run", "sanitize", "--set", "scenarios=1",
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "SANITIZE FAILED" in captured.err
        assert "repro: python -m repro run sanitize --set replay=" in captured.err
        # The failed sweep's report still reaches stdout and --out.
        assert "FAIL" in captured.out
        assert "note: repro: python -m repro run sanitize" in captured.out
        rows = json.loads((tmp_path / "sanitize.json").read_text())
        assert rows[0]["ok"] is False
        assert (tmp_path / "sanitize.txt").read_text() == (
            captured.out.split("\n\n[sanitize:")[0] + "\n"
        )
