"""Pinned report bytes: small runs must reproduce the committed JSON and CSV
byte for byte.

The files under ``tests/golden/`` were written by the CLI before the code
that produces them was restructured; any change to which outcome a seed
produces, or to how a report is rendered, shows up here as a byte
difference. The all-strategy run exercises the comparison table; the
probe-only run exercises a one-row report. The wide run (64 slices holding
3, 2, 1 and 1 marked items, five repeat rounds) exercises several winners
per trial, a six-level OR tree and slices with several solutions.

The benchmark's own workloads are pinned too, by the sha256 of their
seed-1 reports in ``perfbench/digests.json``, which version 0.1.0 wrote.
Version 0.2.0 samples from exact masses; an outcome moves only where its
uniform falls between an old and an exact boundary, and none of these
reports moved, so each still hashes to its 0.1.0 pin once its envelope
names that version.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from probegrover import __version__
from probegrover.cli import run_command

from helpers import PERFBENCH, load_perfbench

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMON = [
    "--db-size", "64", "--subsystems", "4", "--marked", "37,5",
    "--trials", "200", "--repeat-rounds", "3", "--seed", "1",
]
WIDE = [
    "--db-size", "4096", "--subsystems", "64", "--marked", "3,17,40,322,370,2119,4095",
    "--trials", "150", "--repeat-rounds", "5", "--seed", "1",
]
CASES = [
    ("", ["--strategy", "all", *COMMON], "cli_all_n64_m4_marked37-5_t200_r3_seed1"),
    ("probe-", ["--strategy", "probe", *COMMON], "cli_probe_n64_m4_marked37-5_t200_r3_seed1"),
    ("wide-", ["--strategy", "all", *WIDE], "cli_all_n4096_m64_marked3x2x1x1_t150_r5_seed1"),
]
PARAMS = [
    pytest.param(argv, stem, fmt, id=f"{prefix}{fmt}")
    for prefix, argv, stem in CASES
    for fmt in ("json", "csv")
]


@pytest.mark.parametrize("argv, stem, fmt", PARAMS)
def test_report_bytes_match_golden(tmp_path, argv, stem, fmt):
    out = tmp_path / f"report.{fmt}"
    assert run_command([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{stem}.{fmt}").read_bytes()


WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_reports_match_their_0_1_0_digests(capsys, name):
    pins = json.loads((PERFBENCH / "digests.json").read_text())
    assert pins["seed"] == 1
    assert run_command(WORKLOADS[name].argv(1)) == 0
    report = capsys.readouterr().out
    line = f'"version": "{__version__}"'
    assert json.loads(report)["version"] == __version__ and report.count(line) == 1
    restored = report.replace(line, '"version": "0.1.0"').encode()
    assert hashlib.sha256(restored).hexdigest() == pins["versions"]["0.1.0"][name]
