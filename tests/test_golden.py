"""Pinned report bytes: small runs must reproduce the committed JSON and CSV
byte for byte.

The files under ``tests/golden/`` were written by the CLI before the code
that produces them was restructured; any change to which outcome a seed
produces, or to how a report is rendered, shows up here as a byte
difference. The all-strategy run exercises the comparison table; the
probe-only run exercises a one-row report.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from probegrover.cli import run_command

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMON = [
    "--db-size", "64", "--subsystems", "4", "--marked", "37,5",
    "--trials", "200", "--repeat-rounds", "3", "--seed", "1",
]
CASES = [
    ("", ["--strategy", "all", *COMMON], "cli_all_n64_m4_marked37-5_t200_r3_seed1"),
    ("probe-", ["--strategy", "probe", *COMMON], "cli_probe_n64_m4_marked37-5_t200_r3_seed1"),
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
