"""The benchmark's traced run, end to end.

``perfbench/run.py --trace 1`` leaves out every metric whose span it cannot
resolve and still exits 0, so a rename in the package can make its result
incomplete without failing it. Here a seed-1 ``small-batch-all`` run must
pass its own checks, report exactly the per-layer metrics that
``BENCHMARK.json`` declares, and time the engine's two spans.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant: str):
    raise ValueError(f"the bench result holds {constant}, which is not strict JSON")


def test_traced_bench_run_reports_every_declared_metric():
    run = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "small-batch-all",
            "--seed", "1", "--seconds", "0.5", "--trace", "1",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    # The engine's spans: prepare in run_trials, draws and merge in summarize.
    assert result["metrics"]["ledger.summarize.busy_s"]["value"] > 0
    assert result["metrics"]["distributed.run_trials.busy_s"]["value"] > 0
