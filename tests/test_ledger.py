"""Cost accounting, trial aggregation, and the strategy comparison table."""

from __future__ import annotations

from dataclasses import replace

import pytest

from probegrover import (
    CostLedger,
    ExperimentConfig,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    ALL_STRATEGIES,
    TrialColumns,
    UsageError,
    compare_strategies,
    iteration_count,
    run_trials,
    summarize,
)
from probegrover import distributed
from probegrover.distributed import prepare

from helpers import HIT_256, binomial_band, ledgers, trial_columns, winners


def slice_ledgers(cfg):
    """Each slice's own ledger, fixed by its preparation."""
    preparations, which = prepare(cfg)
    return [preparations[n].ledger for n in which.tolist()]


def make_summary(strategy, db_size=1024, num_subsystems=4, marked=(777,), trials=50, seed=4):
    cfg = ExperimentConfig(
        db_size=db_size,
        num_subsystems=num_subsystems,
        global_marked=frozenset(marked),
        strategy=strategy,
        seed=seed,
        trials=trials,
    )
    return summarize(run_trials(cfg))


class TestCostLedger:
    def test_zero_is_identity(self):
        ledger = CostLedger(qubits_measured=4, grover_iterations=2)
        assert ledger + CostLedger() == ledger

    def test_fieldwise_sum(self):
        total = CostLedger(qubits_measured=4) + CostLedger(qubits_measured=2)
        assert total.qubits_measured == 6

    def test_commutative(self):
        a = CostLedger(qubits_measured=1, quantum_oracle_calls=3, decision_steps=2)
        b = CostLedger(classical_oracle_calls=5, grover_iterations=7)
        assert a + b == b + a

    def test_associative(self):
        a, b, c = CostLedger(qubits_measured=1), CostLedger(qubits_measured=2), CostLedger(qubits_measured=4)
        assert (a + b) + c == a + (b + c)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostLedger(qubits_measured=-1)

    def test_ledger_total(self):
        parts = [CostLedger(qubits_measured=i) for i in range(5)]
        assert sum(parts, CostLedger()).qubits_measured == 10


class TestLedgerConservation:
    def test_probe_total_is_subsystems_plus_merge(self):
        cfg = ExperimentConfig(
            db_size=1024,
            num_subsystems=4,
            global_marked=frozenset({777}),
            strategy=PROBE,
            seed=14,
            trials=20,
        )
        sub_total = sum(slice_ledgers(cfg), CostLedger())
        trials, columns = trial_columns(cfg)
        totals = ledgers(trials, columns)
        assert len(totals) == 20
        for total, won in zip(totals, winners(columns)):
            merge = CostLedger(qubits_measured=8 * len(won), decision_steps=total.decision_steps)
            assert total == sub_total + merge

    def test_verify_merge_is_classical_calls(self):
        cfg = ExperimentConfig(
            db_size=1024,
            num_subsystems=4,
            global_marked=frozenset({777}),
            strategy=SEMICLASSICAL_VERIFY,
            seed=14,
            trials=20,
        )
        parts = slice_ledgers(cfg)
        assert all(ledger.classical_oracle_calls == 0 for ledger in parts)
        sub_total = sum(parts, CostLedger())
        expected = sub_total + CostLedger(classical_oracle_calls=4)
        assert ledgers(*trial_columns(cfg)) == [expected] * 20

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_fixed_cost_is_the_per_slice_sum_at_many_slices(self, strategy):
        # 4,096 two-item slices: 0 and 5 share local pattern {1}, 4,000 holds
        # {0}, and the other 4,093 share the solution-free preparation, so
        # each preparation's ledger is weighted by a different slice count.
        cfg = ExperimentConfig(2**13, 2**12, {1, 11, 8000}, strategy, seed=3)
        classical = cfg.num_subsystems if strategy == SEMICLASSICAL_VERIFY else 0
        expected = sum(slice_ledgers(cfg), CostLedger()) + CostLedger(
            classical_oracle_calls=classical
        )
        assert run_trials(cfg).fixed == expected

    def test_subsystem_iterations_never_exceed_sequential(self):
        cfg = ExperimentConfig(
            db_size=1024,
            num_subsystems=4,
            global_marked=frozenset({777}),
            strategy=PROBE,
            seed=15,
            trials=5,
        )
        bound = iteration_count(1024, 1)
        assert all(ledger.grover_iterations <= bound for ledger in slice_ledgers(cfg))
        # Every trial shares the critical-path depth, the deepest slice's.
        assert run_trials(cfg).depth == iteration_count(256, 1)


class TestSummarize:
    def test_uniform_success_batch(self):
        cfg = ExperimentConfig(
            db_size=16,
            num_subsystems=4,
            global_marked=frozenset({10}),
            strategy=PROBE,
            seed=2,
            trials=10,
        )
        summary = summarize(run_trials(cfg))
        assert summary.trials == 10
        assert summary.successes == 10
        assert summary.misses == 0
        assert summary.empirical_success_rate == 1.0
        assert summary.mean_ledger["qubits_measured"] == 6.0

    def test_summarized_trials_rejected(self):
        # The chunks are a one-shot stream: a second fold finds no trial.
        trials = run_trials(ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=2, trials=2))
        summarize(trials)
        with pytest.raises(UsageError, match="folded 0 of 2 trials"):
            summarize(trials)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_summary_does_not_depend_on_chunk_boundaries(self, strategy):
        # The same trials, one per chunk, fold to the same summary.
        cfg = ExperimentConfig(
            64, 4, frozenset({37, 5}), strategy, seed=3, trials=60, repeat_rounds=3
        )
        trials, columns = trial_columns(cfg)
        rows = (TrialColumns(*(c[t : t + 1] for c in columns)) for t in range(60))
        assert summarize(trials._replace(chunks=rows)) == summarize(run_trials(cfg))

    def test_partly_read_trials_rejected(self):
        # A 4-trial chunk at 1024 slices, so 10 trials make three chunks.
        cfg = ExperimentConfig(2048, 1024, frozenset({10}), PROBE, seed=2, trials=10)
        assert distributed._BLOCK_KEYS // 1024 == 4
        trials = run_trials(cfg)
        next(trials.chunks)
        with pytest.raises(UsageError, match="folded 6 of 10 trials"):
            summarize(trials)

    def test_trials_of_another_configuration_rejected(self):
        cfg = ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=2, trials=2)
        trials = run_trials(cfg)._replace(config=replace(cfg, trials=3))
        with pytest.raises(UsageError, match="folded 2 of 3 trials"):
            summarize(trials)

    def test_monte_carlo_rate_tracks_closed_form(self):
        cfg = ExperimentConfig(
            db_size=1024,
            num_subsystems=4,
            global_marked=frozenset({777}),
            strategy=PROBE,
            seed=16,
            trials=1000,
        )
        summary = summarize(run_trials(cfg))
        # p = 0.999947: at most 3 misses (alpha 1e-6), where +-0.01 allowed 10.
        low, high = binomial_band(1000, HIT_256)
        assert low <= summary.successes <= high
        assert summary.empirical_success_rate == summary.successes / 1000


class TestCompareStrategies:
    def test_measurement_columns(self):
        rows = compare_strategies(
            [make_summary(PROBE), make_summary(SEMICLASSICAL_VERIFY)]
        )
        assert rows[0].mean_qubits_measured == 12.0
        assert rows[1].mean_qubits_measured == 32.0

    def test_sequential_baseline_iteration_depth(self):
        rows = compare_strategies([make_summary(SEQUENTIAL), make_summary(PROBE)])
        assert rows[0].mean_grover_iterations == 25.0
        assert rows[1].mean_grover_iterations == 12.0

    def test_single_summary_gives_one_row(self):
        (row,) = compare_strategies([make_summary(PROBE, trials=5)])
        assert row.strategy == PROBE

    def test_requires_a_summary(self):
        with pytest.raises(UsageError, match="at least one"):
            compare_strategies([])

    def test_rejects_different_databases(self):
        with pytest.raises(UsageError, match="different search problems"):
            compare_strategies(
                [
                    make_summary(PROBE, trials=5),
                    make_summary(SEMICLASSICAL_VERIFY, db_size=512, marked=(77,), trials=5),
                ]
            )
        # Same size, different marked sets: the message names both sets.
        with pytest.raises(UsageError, match=r"marked=\[5\]\) vs .*marked=\[3\]\)"):
            compare_strategies(
                [
                    make_summary(PROBE, db_size=16, marked=(3,), trials=2),
                    make_summary(PROBE, db_size=16, marked=(5,), trials=2),
                ]
            )

    def test_rejects_different_subsystem_counts(self):
        with pytest.raises(UsageError, match="sub-system counts"):
            compare_strategies(
                [
                    make_summary(PROBE, trials=5),
                    make_summary(SEMICLASSICAL_VERIFY, num_subsystems=2, trials=5),
                ]
            )

    def test_row_mirrors_summary(self):
        summary = make_summary(PROBE, trials=5)
        row = compare_strategies([summary])[0]
        assert row.strategy == PROBE
        assert row.success_rate == summary.empirical_success_rate
        assert row.mean_decision_steps == summary.mean_ledger["decision_steps"]
