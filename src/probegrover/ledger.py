"""Cost accounting shared by every search strategy.

A CostLedger counts the resources a run consumed; summaries average them
over Monte-Carlo trials, and the comparison table puts strategies side by
side so the measurement reduction and the parallel iteration-depth
advantage are directly visible. Run-time is reported as critical-path
Grover iteration depth, not wall-clock: offset arithmetic between global
and local indices is counted as zero cost.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import UsageError

if TYPE_CHECKING:
    from .distributed import ExperimentConfig, RunReport


@dataclass(frozen=True)
class CostLedger:
    """Non-negative resource counts; addition is fieldwise, and
    ``sum(ledgers, CostLedger())`` totals a collection."""

    qubits_measured: int = 0
    quantum_oracle_calls: int = 0
    classical_oracle_calls: int = 0
    grover_iterations: int = 0
    decision_steps: int = 0

    def __post_init__(self) -> None:
        for name in _LEDGER_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def __add__(self, other: "CostLedger") -> "CostLedger":
        return CostLedger(
            *(getattr(self, name) + getattr(other, name) for name in _LEDGER_FIELDS)
        )


_LEDGER_FIELDS = tuple(f.name for f in fields(CostLedger))


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate of repeated runs of one strategy on one configuration.

    ``mean_ledger`` holds per-field averages of the total ledgers;
    ``mean_iteration_depth`` averages the critical-path iteration count
    (the deepest single sub-system, since sub-systems run in parallel).
    """

    strategy: str
    db_size: int
    num_subsystems: int
    marked: frozenset[int]
    trials: int
    successes: int
    misses: int
    empirical_success_rate: float
    mean_ledger: dict[str, float]
    mean_iteration_depth: float


@dataclass(frozen=True)
class StrategyRow:
    """One comparison-table row; iteration column is critical-path depth."""

    strategy: str
    success_rate: float
    mean_qubits_measured: float
    mean_quantum_oracle_calls: float
    mean_classical_oracle_calls: float
    mean_grover_iterations: float
    mean_decision_steps: float


def summarize(reports: Iterable["RunReport"]) -> TrialSummary:
    """Aggregate trial reports that share one strategy and configuration.

    Folds the reports in a single pass with integer totals, so a stream of
    reports gives the same summary as a list of them.
    """
    first = None
    n = successes = misses = depth = 0
    totals = dict.fromkeys(_LEDGER_FIELDS, 0)
    for report in reports:
        if first is None:
            first = report
        if report.strategy != first.strategy:
            raise UsageError(
                f"mixed strategies in summary: {first.strategy!r} vs {report.strategy!r}"
            )
        if report.config != first.config:
            raise UsageError("mixed configurations in summary")
        n += 1
        successes += report.correct
        misses += report.missed
        depth += report.iteration_depth
        for name in _LEDGER_FIELDS:
            totals[name] += getattr(report.total_ledger, name)
    if first is None:
        raise UsageError("cannot summarize an empty report list")
    return fold_summary(first.config, n, successes, misses, totals, depth)


def fold_summary(
    config: "ExperimentConfig",
    trials: int,
    successes: int,
    misses: int,
    totals: dict[str, int],
    depth: int,
) -> TrialSummary:
    """The summary of ``trials`` trials of ``config`` from integer totals:
    per-field ledger sums and the summed critical-path depth."""
    return TrialSummary(
        strategy=config.strategy,
        db_size=config.db_size,
        num_subsystems=config.num_subsystems,
        marked=config.global_marked,
        trials=trials,
        successes=successes,
        misses=misses,
        empirical_success_rate=successes / trials,
        mean_ledger={name: total / trials for name, total in totals.items()},
        mean_iteration_depth=depth / trials,
    )


def compare_strategies(summaries: Sequence[TrialSummary]) -> list[StrategyRow]:
    """Side-by-side comparison of strategies on the same search problem,
    one row per summary.

    All summaries must share the database size and marked set; distributed
    strategies must also share the sub-system count. A sequential baseline
    (single machine over the whole database) is exempt from the sub-system
    check.
    """
    if not summaries:
        raise UsageError("comparison requires at least one summary")
    first = summaries[0]
    distributed = [s for s in summaries if s.strategy != "sequential"]
    for summary in summaries:
        if (summary.db_size, summary.marked) != (first.db_size, first.marked):
            raise UsageError(
                "summaries compare different search problems: "
                f"(db_size={summary.db_size}, marked={sorted(summary.marked)}) vs "
                f"(db_size={first.db_size}, marked={sorted(first.marked)})"
            )
    for summary in distributed:
        if summary.num_subsystems != distributed[0].num_subsystems:
            raise UsageError("distributed summaries use different sub-system counts")
    return [
        StrategyRow(
            strategy=s.strategy,
            success_rate=s.empirical_success_rate,
            mean_qubits_measured=s.mean_ledger["qubits_measured"],
            mean_quantum_oracle_calls=s.mean_ledger["quantum_oracle_calls"],
            mean_classical_oracle_calls=s.mean_ledger["classical_oracle_calls"],
            mean_grover_iterations=s.mean_iteration_depth,
            mean_decision_steps=s.mean_ledger["decision_steps"],
        )
        for s in summaries
    ]
