"""Command-line surface: flags, validation, exit codes, JSON/CSV emission,
and byte-level determinism."""

from __future__ import annotations

import csv
import json
import pathlib

import pytest

from helpers import cli_peak_rss_mib, run_cli, run_python
from probegrover import InvariantError, ProtocolError, UsageError, cli, distributed
from probegrover.cli import emit_report, run_command

BASE = ["--db-size", "16", "--subsystems", "4", "--marked", "10", "--seed", "7"]


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

    def test_too_many_subsystems(self, capsys):
        code = run_command(
            ["--db-size", "262144", "--subsystems", "131072", "--marked", "0",
             "--strategy", "probe", "--seed", "7"]
        )
        assert code == 2
        assert "subsystems must be at most 65536" in capsys.readouterr().err

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


def test_cli_run_never_imports_numpy_random(tmp_path):
    # Every draw comes from seeding.first_draws, so a CLI run needs no numpy
    # Generator; importing numpy.random alone adds several MiB of peak RSS.
    # Nor does it need numpy.ma, which np.unique without index outputs
    # imports (about 12 ms and 0.6 MiB).
    argv = [*BASE, "--strategy", "all", "--trials", "20", "--out", str(tmp_path / "r.json")]
    result = run_python(
        "import sys\n"
        "from probegrover.cli import run_command\n"
        f"code = run_command({argv!r})\n"
        "print(code, 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    assert result.stdout == "0 False False\n", result.stderr


def test_largest_slice_runs_in_bounded_memory():
    # One 2^24-item slice: a float buffer of its masses alone would be 128
    # MiB (the child peaked at 158 MiB with one). Its segments leave the
    # child near the import floor of about 28 MiB.
    code, peak_mib = cli_peak_rss_mib(
        "--db-size", "16777216", "--subsystems", "1", "--marked", "12345",
        "--strategy", "probe", "--trials", "1", "--seed", "1",
    )
    assert code == 0
    assert peak_mib < 64


class TestInternalErrors:
    @pytest.mark.parametrize("error", [InvariantError, ProtocolError, UsageError])
    def test_run_stage_error_exits_3(self, monkeypatch, capsys, error):
        def fail(config):
            raise error("boom")

        monkeypatch.setattr(cli, "summarize_trials", fail)
        code = run_command([*BASE, "--strategy", "probe", "--trials", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: boom\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "message, detail",
        [
            ("Unable to allocate 128. MiB", "Unable to allocate 128. MiB"),
            ("", "allocation failed"),
        ],
    )
    def test_out_of_memory_exits_3_without_traceback(self, monkeypatch, capsys, message, detail):
        # The mass builder raises as a failed allocation would, so the test
        # allocates nothing large.
        def fail(*args):
            raise MemoryError(message)

        monkeypatch.setattr(distributed, "_distributions", fail)
        code = run_command([*BASE, "--strategy", "all", "--trials", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == f"internal error: out of memory: {detail}\n"
        assert captured.out == ""


class TestEmitReport:
    def report(self):
        from probegrover import ExperimentConfig, PROBE, compare_strategies, run_trials, summarize

        cfg = ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=7, trials=3)
        summaries = [summarize(run_trials(cfg))]
        return {"db_size": 16, "seed": 7}, summaries, compare_strategies(summaries)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_same_report_renders_identical_bytes(self, capsys, fmt):
        report = self.report()
        emit_report(fmt, *report, None)
        first = capsys.readouterr().out
        emit_report(fmt, *report, None)
        assert capsys.readouterr().out == first

    def test_json_parses_and_csv_has_header(self, capsys):
        report = self.report()
        emit_report("json", *report, None)
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        assert payload["summaries"][0]["marked"] == [10]
        emit_report("csv", *report, None)
        assert capsys.readouterr().out.startswith("strategy,")
