"""Cost accounting shared by every search strategy.

A CostLedger counts the resources a run consumed; ``summarize`` folds
the merged columns of ``distributed.run_trials`` into averages over the
Monte-Carlo trials, and the comparison table puts strategies side by
side so the measurement reduction and the parallel iteration-depth
advantage are directly visible. Run-time is reported as critical-path
Grover iteration depth, not wall-clock: offset arithmetic between global
and local indices is counted as zero cost.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import UsageError

if TYPE_CHECKING:
    from .distributed import Trials


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


class TrialSummary(NamedTuple):
    """Aggregate of repeated runs of one strategy on one configuration.

    ``marked`` is the sorted tuple of marked indices, as the report prints
    it; ``mean_ledger`` holds per-field averages of the total ledgers;
    ``mean_iteration_depth`` averages the critical-path iteration count
    (the deepest single sub-system, since sub-systems run in parallel).
    """

    strategy: str
    db_size: int
    num_subsystems: int
    marked: tuple[int, ...]
    trials: int
    successes: int
    misses: int
    empirical_success_rate: float
    mean_ledger: dict[str, float]
    mean_iteration_depth: float


class StrategyRow(NamedTuple):
    """One comparison-table row; iteration column is critical-path depth."""

    strategy: str
    success_rate: float
    mean_qubits_measured: float
    mean_quantum_oracle_calls: float
    mean_classical_oracle_calls: float
    mean_grover_iterations: float
    mean_decision_steps: float


def summarize(trials: "Trials") -> TrialSummary:
    """Fold the merged columns of ``run_trials`` into a summary.

    The chunks are summed in a single pass into integer totals: every
    trial adds the fixed cost, and its own merge qubits and decision steps.
    The chunks are a one-shot stream, so a ``Trials`` that does not yield
    exactly its configured number of trials (one already summarized, say)
    raises UsageError.
    """
    config = trials.config
    n = successes = misses = qubits = steps = 0
    for columns in trials.chunks:
        n += len(columns.correct)
        successes += int(columns.correct.sum())
        if config.global_marked:
            misses += int((~columns.winners.any(axis=1)).sum())
        qubits += int(columns.merge_qubits.sum())
        steps += int(columns.decision_steps.sum())
    if n != config.trials:
        raise UsageError(
            f"summary folded {n} of {config.trials} trials; run_trials streams them once"
        )
    totals = {name: getattr(trials.fixed, name) * n for name in _LEDGER_FIELDS}
    totals["qubits_measured"] += qubits
    totals["decision_steps"] += steps
    return TrialSummary(
        strategy=config.strategy,
        db_size=config.db_size,
        num_subsystems=config.num_subsystems,
        marked=tuple(sorted(config.global_marked)),
        trials=n,
        successes=successes,
        misses=misses,
        empirical_success_rate=successes / n,
        mean_ledger={name: total / n for name, total in totals.items()},
        # Every trial shares the depth, so its mean is the depth itself.
        mean_iteration_depth=float(trials.depth),
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
                f"(db_size={summary.db_size}, marked={list(summary.marked)}) vs "
                f"(db_size={first.db_size}, marked={list(first.marked)})"
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
