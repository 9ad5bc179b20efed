"""Command-line experiment runner.

Usage:
    probegrover --db-size 1024 --subsystems 4 --marked 777 \\
        --strategy all --trials 1000 --seed 1 --format json

Runs seeded trial batches of the selected strategies, then emits a report
envelope as JSON (config echo, per-strategy summaries, comparison table,
seed, version) or as CSV (one comparison row per strategy). Identical
arguments always produce byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 internal error (an
invariant, protocol-order or aggregation failure while running or
summarizing), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .distributed import (
    ALL_STRATEGIES,
    ExperimentConfig,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    iter_trials,
)
from .errors import ConfigurationError, InvariantError, ProtocolError, UsageError
from .ledger import StrategyRow, TrialSummary, compare_strategies, strategy_row, summarize

_CLI_STRATEGIES = {
    "probe": (PROBE,),
    "verify": (SEMICLASSICAL_VERIFY,),
    "repeat": (SEMICLASSICAL_REPEAT,),
    "sequential": (SEQUENTIAL,),
    "all": ALL_STRATEGIES,
}

_CSV_COLUMNS = [f.name for f in dataclasses.fields(StrategyRow)]


@dataclass
class OutputEnvelope:
    """Everything one invocation emits; (config, seed) determines it fully."""

    config: dict
    summaries: list[TrialSummary]
    comparison: list[StrategyRow]
    seed: int
    version: str


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probegrover",
        description=(
            "Distributed Grover search experiments: probe qubits vs "
            "semi-classical merge strategies, with exact cost accounting."
        ),
    )
    parser.add_argument(
        "--db-size", type=int, required=True, help="database size N (power of two)"
    )
    parser.add_argument(
        "--subsystems",
        type=int,
        required=True,
        help="number of sub-systems M (power of two dividing N)",
    )
    parser.add_argument(
        "--marked",
        type=str,
        required=True,
        help="comma-separated global solution indices, e.g. 777 or 3,7",
    )
    parser.add_argument(
        "--strategy",
        choices=sorted(_CLI_STRATEGIES),
        required=True,
        help="merge strategy to run, or 'all' for every strategy plus baseline",
    )
    parser.add_argument(
        "--repeat-rounds",
        type=int,
        default=3,
        help="rounds per sub-system for the repeat strategy (default 3)",
    )
    parser.add_argument(
        "--trials", type=int, default=100, help="trials per strategy (default 100)"
    )
    parser.add_argument(
        "--seed", type=int, required=True, help="master seed; required, no silent entropy"
    )
    parser.add_argument(
        "--format", choices=["json", "csv"], default="json", help="output format"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="output path (default: stdout)"
    )
    return parser


def _parse_marked(text: str) -> frozenset[int]:
    try:
        indices = frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(
            f"marked must be a comma-separated list of integers (got {text!r})"
        ) from None
    if not indices:
        raise ConfigurationError("marked must list at least one index")
    return indices


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, frozenset | set):
        return sorted(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list | tuple):
        return [_jsonable(item) for item in value]
    return value


def _render_json(envelope: OutputEnvelope) -> str:
    payload = {
        "config": _jsonable(envelope.config),
        "summaries": [_jsonable(s) for s in envelope.summaries],
        "comparison": [_jsonable(row) for row in envelope.comparison],
        "seed": envelope.seed,
        "version": envelope.version,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_csv(envelope: OutputEnvelope) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in envelope.comparison:
        writer.writerow([getattr(row, column) for column in _CSV_COLUMNS])
    return buffer.getvalue()


def emit_report(
    envelope: OutputEnvelope, output_format: str, destination: Path | None
) -> None:
    """Render the envelope and write it to a file or stdout.

    A file is written under a temporary name in the same directory and
    renamed into place, so the destination never holds a partial report.
    """
    if not envelope.summaries:
        raise UsageError("envelope has no summaries to emit")
    if output_format == "json":
        rendered = _render_json(envelope)
    elif output_format == "csv":
        rendered = _render_csv(envelope)
    else:
        raise UsageError(f"unknown output format {output_format!r}")
    if destination is None:
        sys.stdout.write(rendered)
        return
    partial = destination.with_name(f".{destination.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(rendered)
        os.replace(partial, destination)
    finally:
        partial.unlink(missing_ok=True)


def run_command(argv: list[str] | None = None) -> int:
    """Parse arguments, run the experiment, emit the report."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        marked = _parse_marked(args.marked)
        strategies = _CLI_STRATEGIES[args.strategy]
        configs = [
            ExperimentConfig(
                db_size=args.db_size,
                num_subsystems=args.subsystems,
                global_marked=marked,
                strategy=strategy,
                seed=args.seed,
                trials=args.trials,
                repeat_rounds=args.repeat_rounds,
            )
            for strategy in strategies
        ]
        # Validates every configuration before any trial runs.
        trial_streams = [iter_trials(config) for config in configs]
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        summaries = [summarize(trials) for trials in trial_streams]
        if len(summaries) >= 2:
            comparison = compare_strategies(summaries)
        else:
            comparison = [strategy_row(summaries[0])]
    except (InvariantError, ProtocolError, UsageError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3

    envelope = OutputEnvelope(
        config={
            "db_size": args.db_size,
            "subsystems": args.subsystems,
            "marked": sorted(marked),
            "strategy": args.strategy,
            "strategies_run": list(strategies),
            "repeat_rounds": args.repeat_rounds,
            "trials": args.trials,
            "seed": args.seed,
        },
        summaries=summaries,
        comparison=comparison,
        seed=args.seed,
        version=__version__,
    )
    try:
        emit_report(envelope, args.format, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
