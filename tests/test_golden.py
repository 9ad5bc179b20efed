"""Pinned report bytes: one small all-strategy run must reproduce the
committed JSON and CSV byte for byte.

The files under ``tests/golden/`` were written by the CLI before the trial
engine was restructured; any change to which outcome a seed produces shows
up here as a byte difference.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from probegrover.cli import run_command

GOLDEN_DIR = Path(__file__).parent / "golden"
ARGV = [
    "--db-size", "64", "--subsystems", "4", "--marked", "37,5",
    "--strategy", "all", "--trials", "200", "--repeat-rounds", "3", "--seed", "1",
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_bytes_match_golden(tmp_path, fmt):
    out = tmp_path / f"report.{fmt}"
    assert run_command([*ARGV, "--format", fmt, "--out", str(out)]) == 0
    golden = GOLDEN_DIR / f"cli_all_n64_m4_marked37-5_t200_r3_seed1.{fmt}"
    assert out.read_bytes() == golden.read_bytes()
