"""Benchmark for the probegrover CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload small-batch-all --seed 1 --seconds 25 --trace 0

The loop is closed with one client: it starts one ``probegrover`` CLI
process at a time from ``src/`` and waits for it to exit before starting
the next, with no threads or pools. The workload seed sets the CLI
``--seed`` and places the marked items (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with tracing off, alternating
the workload's command with the same command at ``--trials 1``:

- ``wall_s``: median wall time from process launch to exit
- ``trials_per_s``: trials of all strategies run, divided by ``wall_s``
- ``cpu_s``: median user plus system CPU time of the child
- ``setup_s``: median wall time of the ``--trials 1`` command: interpreter
  start, imports, validation, per-configuration preparation and one trial
- ``peak_rss_mb``: median peak resident memory of the child
- ``ok_frac``: share of checked runs that passed every correctness check

``--trace 1`` runs the command once as a child, for reference output, then
calls ``probegrover.cli.run_command`` in-process alternately untraced and
traced (``tracer.py``) and reports the per-layer metrics of the traced runs.

Every run is checked (``checks.py``): exit code 0, the envelope, the exact
ledger identities, binomial bounds on success rates, identical bytes across
runs and with the traced run, and for the pinned seed the sha256 pinned in
``digests.json`` for the envelope version. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a readable table goes to standard error. The program exits 2
without a result when ``src/probegrover`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
from pathlib import Path

import checks
import measure
import tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "digests.json"

END_TO_END = {
    "wall_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_frac": ("frac", "higher"),
}

DEADLINE_S = 165.0  # a run must end within 180 s
MIN_RUNS = 3
MIN_SETUPS = 5
SETUP_SHARE = 0.1  # share of --seconds spent on the --trials 1 command
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import probegrover.cli; "
    "print(time.perf_counter() - t)"
)


class Verdicts:
    """Counts checked runs and collects the problems of failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


class Session:
    """One benchmark run: a workload, its seed, and a deadline."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.deadline = self.start + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.pins = json.loads(PINS.read_text())
        self.verdicts = Verdicts()
        self.reference: dict[int, bytes] = {}
        self.notes: list[str] = []  # extra lines for the readable table

    def report_problems(self, trials: int, stdout: bytes) -> list[str]:
        """Content checks, plus identity with the first report of this size."""
        problems = checks.check_report(self.workload, self.seed, trials, stdout)
        if trials == self.workload.trials:
            problems += checks.check_digest(self.pins, self.workload.name, self.seed, stdout)
        if self.reference.setdefault(trials, stdout) != stdout:
            problems.append("report bytes differ from the first report of this run")
        return problems

    def cli(self, trials: int) -> measure.ChildRun:
        argv = [sys.executable, "-m", "probegrover.cli", *self.workload.argv(self.seed, trials)]
        child = measure.run_child(argv, self.env, self.deadline - time.perf_counter())
        if child.timed_out:
            problems = ["killed at the run deadline"]
        elif child.returncode != 0:
            problems = [f"exit code {child.returncode}: {child.stderr.decode()[-500:]}"]
        else:
            problems = self.report_problems(trials, child.stdout)
        self.verdicts.record(f"cli --trials {trials}", problems)
        return child

    def fits(self, estimate_s: float) -> bool:
        return time.perf_counter() + estimate_s < self.deadline

    def import_probe(self) -> float | None:
        child = measure.run_child(
            [sys.executable, "-c", IMPORT_PROBE], self.env, self.deadline - time.perf_counter()
        )
        try:
            seconds = float(child.stdout) if child.returncode == 0 else None
        except ValueError:
            seconds = None
        problems = [] if seconds is not None else [
            f"exit code {child.returncode}: {child.stderr.decode()[-500:]}"
        ]
        self.verdicts.record("import probegrover.cli", problems)
        return seconds

    def end_to_end(self) -> dict[str, float]:
        trials = self.workload.trials
        self.import_probe()  # compiles bytecode so that no timed run pays for it
        runs: list[measure.ChildRun] = []
        setups: list[measure.ChildRun] = []
        full_budget = (1.0 - SETUP_SHARE) * self.seconds
        setup_budget = SETUP_SHARE * self.seconds
        while True:
            need_run = len(runs) < MIN_RUNS or sum(r.wall_s for r in runs) < full_budget
            need_setup = trials != 1 and (
                len(setups) < MIN_SETUPS or sum(r.wall_s for r in setups) < setup_budget
            )
            slowest = max((r.wall_s for r in runs), default=0.0)
            if not (need_run or need_setup) or (runs and not self.fits(1.5 * slowest)):
                break
            if need_run:
                runs.append(self.cli(trials))
            if need_setup:
                setups.append(self.cli(1))
        setups = setups or runs
        wall = measure.median([r.wall_s for r in runs])
        setup_rss = measure.median([r.peak_rss_mb for r in setups])
        self.notes.append(f"  {'setup_peak_rss_mb':42} {setup_rss:14.6g} MiB")
        return {
            "wall_s": wall,
            "trials_per_s": trials * len(self.workload.strategies) / wall,
            "cpu_s": measure.median([r.cpu_s for r in runs]),
            "setup_s": measure.median([r.wall_s for r in setups]),
            "peak_rss_mb": measure.median([r.peak_rss_mb for r in runs]),
            "ok_frac": 1.0 - self.verdicts.failed / self.verdicts.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        reference = self.cli(self.workload.trials)
        import_times = [self.import_probe() for _ in range(IMPORT_PROBES)]

        sys.path.insert(0, str(SRC))
        import probegrover.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"imported {cli.__file__}, not the package under {SRC}")
        argv = self.workload.argv(self.seed)
        untraced: list[float] = []
        traced: list[float] = []
        samples: list[dict[str, float]] = []
        while self.fits(2.5 * reference.wall_s):
            for tracing in (False, True):
                gc.collect()
                active = tracer.Tracer() if tracing else contextlib.nullcontext()
                stdout = io.StringIO()
                with active, contextlib.redirect_stdout(stdout):
                    start = time.perf_counter()
                    try:
                        code = cli.run_command(argv)
                    except Exception as exc:  # a failed run is counted, not fatal
                        code = repr(exc)
                    elapsed = time.perf_counter() - start
                output = stdout.getvalue().encode()
                what = "traced run_command" if tracing else "in-process run_command"
                problems = [] if code == 0 else [f"run_command ended with {code}"]
                if output != reference.stdout:
                    problems.append("report bytes differ from the CLI child's report")
                self.verdicts.record(what, problems)
                (traced if tracing else untraced).append(elapsed)
                if tracing:
                    samples.append(tracer.layer_metrics(active))
            if time.perf_counter() - self.start >= self.seconds:
                break

        metrics = {
            name: measure.median([s[name] for s in samples]) for name in samples[-1]
        } if samples else {}
        measured_imports = [t for t in import_times if t is not None]
        if measured_imports:
            metrics["cli.import_s"] = measure.median(measured_imports)
        if traced:
            metrics["cli.trace_overhead_frac"] = (
                measure.median(traced) / measure.median(untraced) - 1.0
            )
            self.notes += _span_table(active.spans)
            self.notes += [f"  absent: {label} (not in the package)" for label in active.absent]
        return metrics


def _span_table(spans: dict[str, tracer.Span]) -> list[str]:
    """Spans of the last traced run by self time, with self time's share of the run."""
    total = spans["cli.run_command"].busy_s if "cli.run_command" in spans else 0.0
    lines = [f"{'span':38} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'self%':>6}"]
    for label, span in sorted(spans.items(), key=lambda item: -item[1].self_s):
        share = 100.0 * span.self_s / total if total else 0.0
        lines.append(
            f"{label:38} {span.calls:9d} {span.busy_s:10.4f} {span.self_s:10.4f} {share:6.1f}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "probegrover" / "cli.py").is_file():
        print(f"error: no probegrover package under {SRC}", file=sys.stderr)
        return 2

    session = Session(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.trace:
        values, units = session.per_layer(), tracer.per_layer_units()
    else:
        values, units = session.end_to_end(), END_TO_END

    verdicts = session.verdicts
    print(f"workload {args.workload}, seed {args.seed}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:42} {value:14.6g} {units[name][0]}", file=sys.stderr)
    for line in session.notes:
        print(line, file=sys.stderr)
    for problem in verdicts.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"checks: {verdicts.attempted - verdicts.failed}/{verdicts.attempted} passed", file=sys.stderr)

    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {
            name: {"value": value, "unit": units[name][0]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
