"""The benchmark's traced run, end to end.

``perfbench/run.py --trace 1`` leaves out every metric whose span it cannot
resolve and still exits 0, so a rename in the package can make its result
incomplete without failing it. Here a seed-1 ``small-batch-all`` run must
pass its own checks, report exactly the per-layer metrics that
``BENCHMARK.json`` declares, and read 0 on exactly the metrics listed below
as dead by design: a span that dies or revives unrecorded fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_DENSE = "the engine samples exact masses; a CLI run never calls the dense layer"
# The metrics a CLI run leaves at 0, each with the reason it does.
DEAD = {
    "grover.run_grover.calls": _DENSE,
    "grover.run_grover.self_s": _DENSE,
    "grover.iterations": "counted from run_grover's results; the engine calls outcome_masses",
    "grover.distinct_ratio": "distinct run_grover inputs; the engine calls outcome_masses",
    "statevector.apply_phase_oracle.busy_s": _DENSE,
    "statevector.apply_diffusion.busy_s": _DENSE,
    "statevector.compose_with_probe.busy_s": _DENSE,
    "statevector.apply_boolean_oracle.busy_s": _DENSE,
    "statevector.measure_probe.calls": _DENSE,
    "statevector.measure_probe.busy_s": _DENSE,
    "statevector.measure_register.calls": _DENSE,
    "statevector.measure_register.busy_s": _DENSE,
    "statevector.probe_fire_ratio": "counted from measure_probe's results, which never run",
    "statevector.kernel_amplitudes": "counted from the dense kernels' inputs, which never run",
    "statevector.kernel_bytes_computed": "counted from the dense kernels' inputs, which never run",
    "statevector.kernel_gbps_computed": "the kernels' bytes over their time, both 0",
    "seeding.child_rng.calls": "first_draws hashes every stream; child_rng is its reference",
    "seeding.child_rng.busy_s": "first_draws hashes every stream; child_rng is its reference",
    "seeding.child_rng.us_per_call": "child_rng's time per call, with no calls",
    "distributed.find_winner.calls": "the merge scans all trials' probe bits as arrays",
    "distributed.find_winner.busy_s": "the merge scans all trials' probe bits as arrays",
    "distributed.decision_steps": "counted from find_winner's results, which never run",
    "distributed.winners_per_trial": "read from run_trials as a list of reports; it is Trials",
    "distributed.retained_state_mb": "read from run_trials as a list of reports; it is Trials",
}
# Derived from whole-run times, so no value says whether a span is alive.
UNCONSTRAINED = {"cli.import_s", "cli.trace_overhead_frac"}


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
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    constrained = set(values) - UNCONSTRAINED
    assert {name for name in constrained if values[name] == 0} == set(DEAD)
    # Every other span is alive, the engine's among them: prepare in
    # run_trials, draws and merge in summarize.
    assert {name for name in constrained - set(DEAD) if not values[name] > 0} == set()
