"""Command-line surface: flags, validation, exit codes, JSON/CSV emission,
and byte-level determinism."""

from __future__ import annotations

import csv
import json
import pathlib
import subprocess
import sys

import pytest

from probegrover import InvariantError, ProtocolError, UsageError, cli
from probegrover.cli import run_command

BASE = ["--db-size", "16", "--subsystems", "4", "--marked", "10", "--seed", "7"]


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "probegrover.cli", *argv],
        capture_output=True,
        text=True,
    )


class TestValidation:
    def test_non_power_of_two_db_size(self, capsys):
        code = run_command(
            ["--db-size", "12", "--subsystems", "4", "--marked", "10",
             "--strategy", "probe", "--seed", "7"]
        )
        assert code == 2
        assert "db-size must be a power of two" in capsys.readouterr().err

    def test_marked_out_of_range(self, capsys):
        code = run_command(
            ["--db-size", "16", "--subsystems", "4", "--marked", "20",
             "--strategy", "probe", "--seed", "7"]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_non_dividing_subsystems(self, capsys):
        code = run_command(
            ["--db-size", "16", "--subsystems", "16", "--marked", "10",
             "--strategy", "probe", "--seed", "7"]
        )
        assert code == 2

    def test_repeat_rounds_bound(self, capsys):
        code = run_command(
            [*BASE, "--strategy", "repeat", "--repeat-rounds", "4", "--trials", "2"]
        )
        assert code == 2
        assert "sqrt" in capsys.readouterr().err

    def test_garbled_marked_list(self, capsys):
        code = run_command(
            ["--db-size", "16", "--subsystems", "4", "--marked", "ten",
             "--strategy", "probe", "--seed", "7"]
        )
        assert code == 2

    def test_negative_seed(self, capsys):
        code = run_command(
            ["--db-size", "16", "--subsystems", "4", "--marked", "10",
             "--strategy", "probe", "--seed", "-3"]
        )
        assert code == 2

    def test_unknown_strategy_is_a_flag_error(self):
        result = run_cli(*BASE, "--strategy", "psychic")
        assert result.returncode == 2
        assert "invalid choice" in result.stderr


class TestJsonOutput:
    def test_envelope_shape_and_certain_success(self, capsys):
        code = run_command([*BASE, "--strategy", "probe", "--trials", "100", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"config", "summaries", "comparison", "seed", "version"}
        assert payload["seed"] == 7
        (summary,) = payload["summaries"]
        assert summary["empirical_success_rate"] == 1.0
        assert summary["mean_ledger"]["qubits_measured"] == 6.0
        assert payload["config"]["marked"] == [10]

    def test_all_strategies_comparison_columns(self, capsys):
        code = run_command(
            ["--db-size", "1024", "--subsystems", "4", "--marked", "777",
             "--strategy", "all", "--trials", "1000", "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        columns = {row["strategy"]: row for row in payload["comparison"]}
        assert columns["probe"]["mean_qubits_measured"] == 12.0
        assert columns["semiclassical-verify"]["mean_qubits_measured"] == 32.0
        assert columns["semiclassical-repeat"]["mean_qubits_measured"] == 96.0
        assert columns["sequential"]["mean_grover_iterations"] == 25.0
        assert columns["probe"]["mean_grover_iterations"] == 12.0

    def test_round_trips_through_json_parser(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_command([*BASE, "--strategy", "probe", "--trials", "5", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["version"]


class TestCsvOutput:
    def test_header_and_one_row_per_strategy(self, capsys):
        code = run_command(
            [*BASE, "--strategy", "all", "--trials", "10", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0][0] == "strategy"
        assert [r[0] for r in rows[1:]] == [
            "probe", "semiclassical-verify", "semiclassical-repeat", "sequential"
        ]
        assert len(rows[0]) == 7


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_identical_invocations_identical_bytes(self, fmt):
        argv = [*BASE, "--strategy", "all", "--trials", "20", "--format", fmt]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # sanity: something was emitted

    def test_file_and_stdout_agree(self, tmp_path):
        out = tmp_path / "report.json"
        to_file = run_cli(*BASE, "--strategy", "probe", "--trials", "10", "--out", str(out))
        to_stdout = run_cli(*BASE, "--strategy", "probe", "--trials", "10")
        assert to_file.returncode == to_stdout.returncode == 0
        assert out.read_text() == to_stdout.stdout

    def test_single_strategy_matches_combined_batch(self, capsys):
        run_command([*BASE, "--strategy", "probe", "--trials", "30"])
        alone = json.loads(capsys.readouterr().out)
        run_command([*BASE, "--strategy", "all", "--trials", "30"])
        combined = json.loads(capsys.readouterr().out)
        assert alone["summaries"][0] == combined["summaries"][0]


class TestIoErrors:
    def test_unwritable_destination_exits_4(self, tmp_path, capsys):
        missing_dir = tmp_path / "nope" / "report.json"
        code = run_command(
            [*BASE, "--strategy", "probe", "--trials", "2", "--out", str(missing_dir)]
        )
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("failing_step", ["write", "rename"])
    def test_failed_write_leaves_no_partial_file(
        self, tmp_path, monkeypatch, capsys, failing_step
    ):
        out = tmp_path / "report.json"
        out.write_text("previous report\n")
        write_text = pathlib.Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        def fail_rename(src, dst):
            raise OSError("rename refused")

        if failing_step == "write":
            monkeypatch.setattr(pathlib.Path, "write_text", write_half_then_fail)
        else:
            monkeypatch.setattr(cli.os, "replace", fail_rename)
        code = run_command([*BASE, "--strategy", "probe", "--trials", "2", "--out", str(out)])
        monkeypatch.undo()
        assert code == 4
        assert "cannot write" in capsys.readouterr().err
        assert out.read_text() == "previous report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestInternalErrors:
    @pytest.mark.parametrize("error", [InvariantError, ProtocolError, UsageError])
    def test_run_stage_error_exits_3(self, monkeypatch, capsys, error):
        def fail(reports):
            raise error("boom")

        monkeypatch.setattr(cli, "summarize", fail)
        code = run_command([*BASE, "--strategy", "probe", "--trials", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: boom\n"
        assert captured.out == ""


class TestEmitReport:
    def envelope(self):
        from probegrover import ExperimentConfig, PROBE, run_trials, strategy_row, summarize
        from probegrover.cli import OutputEnvelope

        cfg = ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=7, trials=3)
        summary = summarize(run_trials(cfg))
        return OutputEnvelope(
            config={"db_size": 16},
            summaries=[summary],
            comparison=[strategy_row(summary)],
            seed=7,
            version="0.1.0",
        )

    def test_rejects_empty_summaries(self):
        from probegrover import UsageError
        from probegrover.cli import OutputEnvelope, emit_report

        empty = OutputEnvelope(config={}, summaries=[], comparison=[], seed=0, version="0")
        with pytest.raises(UsageError, match="no summaries"):
            emit_report(empty, "json", None)

    @pytest.mark.parametrize("renderer", ["_render_json", "_render_csv"])
    def test_same_envelope_renders_identical_bytes(self, renderer):
        from probegrover import cli

        envelope = self.envelope()
        render = getattr(cli, renderer)
        assert render(envelope) == render(envelope)

    def test_json_parses_and_csv_has_header(self):
        from probegrover.cli import _render_csv, _render_json

        envelope = self.envelope()
        assert json.loads(_render_json(envelope))["seed"] == 7
        assert _render_csv(envelope).startswith("strategy,")
