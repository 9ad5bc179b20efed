"""Command-line experiment runner.

Usage:
    probegrover --db-size 1024 --subsystems 4 --marked 777 \\
        --strategy all --trials 1000 --seed 1 --format json

Runs seeded trial batches of the selected strategies, then emits a report
envelope as JSON (config echo, per-strategy summaries, comparison table,
seed, version) or as CSV (one comparison row per strategy). Identical
arguments always produce byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 internal error (an
invariant, protocol-order or aggregation failure, or running out of
memory, while running or summarizing), 4 output I/O error, 130
interrupted (SIGINT) while running or summarizing, with no report.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigurationError, InvariantError, ProtocolError, UsageError
from .ledger import StrategyRow, TrialSummary, compare_strategies, summarize

# The CLI makes no BLAS call, so numpy's OpenBLAS needs no (spinning) worker.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributed import (  # noqa: E402
    ALL_STRATEGIES,
    ExperimentConfig,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    run_trials,
)

_CLI_STRATEGIES = {
    "probe": (PROBE,),
    "verify": (SEMICLASSICAL_VERIFY,),
    "repeat": (SEMICLASSICAL_REPEAT,),
    "sequential": (SEQUENTIAL,),
    "all": ALL_STRATEGIES,
}

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
    return indices


def emit_report(
    output_format: str,
    config: dict,
    summaries: list[TrialSummary],
    rows: list[StrategyRow],
    destination: Path | None,
) -> None:
    """Render the report and write it to a file or stdout.

    JSON is the envelope of config echo, summaries, comparison rows, seed
    and version; CSV is one comparison row per strategy. The destination's
    symlinks are resolved. A missing or regular file is written under a
    temporary name beside it and renamed into place, so it never holds a
    partial report and a link to it stays a link. Anything else (a FIFO, a
    device, a terminal) is written in place, because a rename would replace
    it.
    """
    if output_format == "json":
        payload = {
            "config": config,
            "summaries": [s._asdict() for s in summaries],
            "comparison": [row._asdict() for row in rows],
            "seed": config["seed"],
            "version": __version__,
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        # A strategy name and six floats never need quoting.
        rendered = "".join(f"{','.join(map(str, row))}\n" for row in [StrategyRow._fields, *rows])
    if destination is None:
        sys.stdout.write(rendered)
        return
    target = Path(os.path.realpath(destination))
    try:
        replaceable = stat.S_ISREG(target.stat().st_mode)
    except FileNotFoundError:
        replaceable = True
    if not replaceable:
        target.write_text(rendered)
        return
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(rendered)
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def run_command(argv: list[str] | None = None) -> int:
    """Parse arguments, run the experiment, emit the report."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        marked = _parse_marked(args.marked)
        strategies = _CLI_STRATEGIES[args.strategy]
        # Building each configuration validates it before any trial runs.
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
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        summaries = [summarize(run_trials(config)) for config in configs]
        rows = compare_strategies(summaries)
    except (InvariantError, ProtocolError, UsageError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"internal error: out of memory: {detail}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130

    config = {
        "db_size": args.db_size,
        "subsystems": args.subsystems,
        "marked": sorted(marked),
        "strategy": args.strategy,
        "strategies_run": list(strategies),
        "repeat_rounds": args.repeat_rounds,
        "trials": args.trials,
        "seed": args.seed,
    }
    try:
        emit_report(args.format, config, summaries, rows, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
