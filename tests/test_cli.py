"""Command-line surface: flags, validation, exit codes, JSON/CSV emission,
and byte-level determinism."""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import pathlib
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probegrover
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

    def test_repeat_rounds_checked_for_every_strategy(self, capsys):
        code = run_command(
            ["--db-size", "16", "--subsystems", "4", "--marked", "10", "--strategy", "probe",
             "--repeat-rounds", "-3", "--trials", "1", "--seed", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: repeat-rounds must be at least 2 (got -3)\n"

    def test_sqrt_round_bound_is_repeat_only(self, capsys):
        # The default 3 rounds fail 3 < sqrt(8), which only repeat requires.
        code = run_command(
            ["--db-size", "8", "--subsystems", "2", "--marked", "3", "--strategy", "probe",
             "--trials", "1", "--seed", "1"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["repeat_rounds"] == 3

    def test_trials_past_two_to_the_32(self, capsys):
        code = run_command([*BASE, "--strategy", "probe", "--trials", "4294967297"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: trials must be between 1 and 2**32 (got 4294967297)\n"

    # An empty part fails int(), so no list parses to the empty set.
    @pytest.mark.parametrize("text", ["ten", "", ",", "3,"])
    def test_garbled_marked_list(self, capsys, text):
        code = run_command(
            ["--db-size", "16", "--subsystems", "4", "--marked", text,
             "--strategy", "probe", "--seed", "7"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: marked must be a comma-separated list of integers (got {text!r})\n"
        )

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
    @pytest.mark.parametrize(
        "text, marked", [("3, 7", "3,7"), ("1_0", "10"), ("7,7", "7")]
    )
    def test_marked_follows_python_int_syntax_and_collapses_duplicates(
        self, capsys, text, marked
    ):
        # Each index is read with int(), as argparse reads every other integer
        # flag: spaces around it and underscores between digits are accepted,
        # and a repeated index counts once.
        def run(marked_text: str) -> str:
            argv = ["--db-size", "16", "--subsystems", "4", "--marked", marked_text,
                    "--strategy", "all", "--trials", "5", "--seed", "7"]
            assert run_command(argv) == 0
            return capsys.readouterr().out

        report = run(text)
        assert report == run(marked)
        assert json.loads(report)["config"]["marked"] == [int(i) for i in marked.split(",")]

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

    def test_symlink_destination_stays_a_link(self, tmp_path, capsys):
        argv = [*BASE, "--strategy", "probe", "--trials", "2"]
        assert run_command(argv) == 0
        report = capsys.readouterr().out
        target = tmp_path / "target.json"
        target.write_text("previous report\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert run_command([*argv, "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text() == report
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_fifo_destination_is_written_in_place(self, tmp_path, capsys):
        argv = [*BASE, "--strategy", "probe", "--trials", "2"]
        assert run_command(argv) == 0
        report = capsys.readouterr().out
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run_command([*argv, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [report]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]

    def test_directory_destination_exits_4_without_temp_file(self, tmp_path, capsys):
        out = tmp_path / "reports"
        out.mkdir()
        code = run_command([*BASE, "--strategy", "probe", "--trials", "2", "--out", str(out)])
        assert code == 4
        assert "cannot write" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["reports"]
        assert not any(out.iterdir())


# Each flag's (valid, invalid) values. Any mix of valid values runs, since
# every valid marked index fits the smallest valid database. --trials never
# draws a large count: nothing bounds it yet, and such a run takes hours.
# --out is left to the tmp_path tests above.
_FUZZ_FLAGS = {
    "--db-size": (["16", "32", "64"], ["12", "0", "-16", "1", "1.5", "x", str(2**70)]),
    "--subsystems": (["1", "2", "4"], ["0", "3", "-2", "64", "x"]),
    "--marked": (["0", "10", "3,7", "1,1", " 5", "15"], ["", "x", "-1", "64", "3,,7", "1.0"]),
    "--strategy": (sorted(cli._CLI_STRATEGIES), ["bogus", ""]),
    "--repeat-rounds": (["2", "3"], ["1", "-3", "x", "1000000"]),
    "--trials": (["1", "2", "3"], ["0", "-1", "1.5", "x"]),
    "--seed": (["0", "7", str(2**200 + 17)], ["-1", "x", "1e3"]),
    "--format": (["json", "csv"], ["xml"]),
}


@st.composite
def cli_argv(draw) -> list[str]:
    """Every flag, mostly valid, sometimes invalid or left out, in any order,
    now and then with a stray token."""
    pairs = []
    for flag, (valid, invalid) in _FUZZ_FLAGS.items():
        kind = draw(st.sampled_from(["valid"] * 12 + ["invalid"] * 3 + ["missing"]))
        if kind != "missing":
            pairs.append([flag, draw(st.sampled_from(valid if kind == "valid" else invalid))])
    argv = [token for pair in draw(st.permutations(pairs)) for token in pair]
    return argv + draw(st.sampled_from([[]] * 14 + [["--bogus"], ["stray"]]))


def _run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_argv())
def test_fuzzed_argv_meets_the_failure_contract(argv):
    # Any exception other than SystemExit escapes run_command and fails the test.
    code, out, err = _run_captured(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in out + err
    if code == 0:
        assert err == "" and out
        assert _run_captured(argv) == (0, out, "")
    elif err.startswith("usage: "):
        assert code == 2 and "\nprobegrover: error: " in err, (argv, err)
    else:
        assert err.startswith(("error: ", "internal error: ")), (argv, err)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)


def test_cli_run_never_imports_numpy_random(tmp_path):
    # Every draw comes from seeding.first_draws, so a CLI run needs no numpy
    # Generator; importing numpy.random alone adds several MiB of peak RSS.
    # Nor numpy.ma (about 12 ms and 0.6 MiB): the marked indices are bucketed
    # in plain Python. Nor fractions (about 0.45 MiB): the exact masses are
    # integer arithmetic and one int / int division. Nor csv, not even for a
    # CSV report: its rows are joined with commas. Nor the dense layer
    # (statevector): the engine samples two masses. Of the classes those
    # modules define, only the two whose constructors validate are
    # dataclasses: a @dataclass execs several generated methods when its
    # class is defined (six five-field ones take 4-7 ms, six NamedTuples
    # about 1 ms), so plain records are NamedTuples.
    argv = [*BASE, "--strategy", "all", "--trials", "20", "--out", str(tmp_path / "r.json")]
    csv_argv = [*argv[:-1], str(tmp_path / "r.csv"), "--format", "csv"]
    result = run_python(
        "import dataclasses, sys\n"
        "from probegrover.cli import run_command\n"
        f"code = run_command({argv!r})\n"
        "unused = ('numpy.random', 'numpy.ma', 'fractions', 'csv')\n"
        "print(code, *(m in sys.modules for m in unused))\n"
        f"code = run_command({csv_argv!r})\n"
        "print(code, 'csv' in sys.modules)\n"
        "loaded = [v for m, v in sys.modules.items() if m.split('.')[0] == 'probegrover']\n"
        "print(*sorted(m.__name__ for m in loaded))\n"
        "print(*sorted(name for m in loaded for name, value in vars(m).items()\n"
        "    if isinstance(value, type) and value.__module__ == m.__name__\n"
        "    and dataclasses.is_dataclass(value)))\n"
    )
    assert result.stdout.splitlines() == [
        "0 False False False False",
        "0 False",
        "probegrover probegrover.cli probegrover.distributed probegrover.errors "
        "probegrover.grover probegrover.ledger probegrover.seeding",
        "CostLedger ExperimentConfig",
    ], result.stderr


def test_bare_import_loads_nothing():
    # The package exports its names lazily (PEP 562).
    result = run_python(
        "import sys, probegrover\n"
        "print([m for m in sys.modules if m == 'numpy' or m.startswith('probegrover.')])\n"
    )
    assert result.stdout == "[]\n", result.stderr
    for name in probegrover.__all__:
        module = importlib.import_module(f"probegrover.{probegrover._EXPORTS[name]}")
        value = getattr(probegrover, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
        assert name in dir(probegrover)
    with pytest.raises(AttributeError, match="no_such_name"):
        probegrover.no_such_name


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_process_starts_openblas_without_workers(tmp_path, preset):
    # The launcher imports nothing before the CLI module runs, as
    # ``python -m probegrover.cli`` does. Without a user setting the CLI
    # starts OpenBLAS with one thread, so the process keeps one; a value the
    # user set is kept.
    argv = [*BASE, "--strategy", "all", "--trials", "5", "--out", str(tmp_path / "r.json")]
    result = run_python(
        "import os, runpy, sys\n"
        f"sys.argv = ['probegrover', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('probegrover.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n",
        OPENBLAS_NUM_THREADS=preset,
    )
    code, threads, setting = result.stdout.split()
    assert code == "0", result.stderr
    if preset is None:
        assert (threads, setting) == ("1", "1")
    else:
        assert setting == preset


def test_largest_slice_runs_in_bounded_memory():
    # One 2^24-item slice: a float buffer of its masses alone would be 128
    # MiB. Its two masses leave the child near the import floor, about 30 MiB.
    code, peak_mib = cli_peak_rss_mib(
        "--db-size", "16777216", "--subsystems", "1", "--marked", "12345",
        "--strategy", "probe", "--trials", "1", "--seed", "1",
    )
    assert code == 0
    assert peak_mib < 40


class TestInternalErrors:
    @pytest.mark.parametrize("error", [InvariantError, ProtocolError, UsageError])
    def test_run_stage_error_exits_3(self, monkeypatch, capsys, error):
        def fail(config):
            raise error("boom")

        monkeypatch.setattr(cli, "summarize", fail)
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

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-file"])
    def test_interrupt_exits_130_with_one_line_and_no_report(
        self, monkeypatch, capsys, tmp_path, out
    ):
        def interrupt(config):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "summarize", interrupt)
        target = ["--out", str(tmp_path / "report.json")] if out else []
        code = run_command([*BASE, "--strategy", "repeat", "--trials", "2", *target])
        assert code == 130
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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
