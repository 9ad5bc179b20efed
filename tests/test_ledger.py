"""Cost accounting, trial aggregation, and the strategy comparison table."""

from __future__ import annotations

import pytest

from probegrover import (
    CostLedger,
    ExperimentConfig,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    ALL_STRATEGIES,
    UsageError,
    compare_strategies,
    iter_trials,
    iteration_count,
    run_trials,
    success_probability,
    summarize,
)
from probegrover.distributed import prepare


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
        for report in run_trials(cfg):
            merge = CostLedger(
                qubits_measured=8 * len(report.winners),
                decision_steps=report.total_ledger.decision_steps,
            )
            assert report.total_ledger == sub_total + merge

    def test_verify_merge_is_classical_calls(self):
        cfg = ExperimentConfig(
            db_size=1024,
            num_subsystems=4,
            global_marked=frozenset({777}),
            strategy=SEMICLASSICAL_VERIFY,
            seed=14,
            trials=20,
        )
        ledgers = slice_ledgers(cfg)
        assert all(ledger.classical_oracle_calls == 0 for ledger in ledgers)
        sub_total = sum(ledgers, CostLedger())
        for report in run_trials(cfg):
            assert report.total_ledger == sub_total + CostLedger(classical_oracle_calls=4)

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
        for report in run_trials(cfg):
            assert report.iteration_depth == iteration_count(256, 1)


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

    def test_empty_input_rejected(self):
        for empty in ([], iter(())):
            with pytest.raises(UsageError, match="empty"):
                summarize(empty)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_stream_and_list_give_identical_summaries(self, strategy):
        cfg = ExperimentConfig(
            64, 4, frozenset({37, 5}), strategy, seed=3, trials=60, repeat_rounds=3
        )
        reports = run_trials(cfg)
        assert summarize(iter(reports)) == summarize(reports)
        assert summarize(iter_trials(cfg)) == summarize(reports)

    def test_mixed_strategies_rejected(self):
        probe = run_trials(
            ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=2, trials=2)
        )
        verify = run_trials(
            ExperimentConfig(16, 4, frozenset({10}), SEMICLASSICAL_VERIFY, seed=2, trials=2)
        )
        with pytest.raises(UsageError, match="mixed strategies"):
            summarize(probe + verify)

    def test_mixed_configs_rejected(self):
        a = run_trials(ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=2, trials=2))
        b = run_trials(ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=3, trials=2))
        with pytest.raises(UsageError, match="mixed configurations"):
            summarize(a + b)

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
        expected = success_probability(256, 1, 12)
        assert abs(summary.empirical_success_rate - expected) < 0.01


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
