"""Distributed protocol: partitioning, offsets, slice preparation and
recovery, the probe strategy, both semi-classical strategies, the
sequential baseline, and determinism."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from probegrover import (
    ConfigurationError,
    CostLedger,
    ExperimentConfig,
    PROBE,
    ProtocolError,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    SubsystemDescriptor,
    child_rng,
    find_winner,
    iter_trials,
    iteration_count,
    partition,
    run_trials,
    success_probability,
)
from probegrover.distributed import prepare, recover_global
from probegrover.statevector import sample_cdf

from helpers import expand, partitions


def config(
    db_size=16, num_subsystems=4, marked=(10,), strategy=PROBE, seed=7, **kwargs
) -> ExperimentConfig:
    return ExperimentConfig(
        db_size=db_size,
        num_subsystems=num_subsystems,
        global_marked=frozenset(marked),
        strategy=strategy,
        seed=seed,
        **kwargs,
    )


def first_trial(cfg: ExperimentConfig):
    return next(iter_trials(cfg))


def prepared_slice(cfg: ExperimentConfig, sub_id: int):
    """The preparation slice ``sub_id`` of ``cfg`` draws from."""
    preparations, which = prepare(cfg)
    return preparations[which[sub_id]]


class TestPartition:
    def test_equal_slices_with_running_offsets(self):
        subs = partition(16, 4)
        assert [s.offset for s in subs] == [0, 4, 8, 12]
        assert all(s.size == 4 for s in subs)
        assert [s.id for s in subs] == [0, 1, 2, 3]

    def test_single_subsystem_degenerates_to_whole_database(self):
        (sub,) = partition(8, 1)
        assert sub.offset == 0 and sub.size == 8

    def test_non_dividing_count_rejected(self):
        with pytest.raises(ConfigurationError):
            partition(8, 3)

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            partition(12, 4)

    def test_slices_smaller_than_two_rejected(self):
        with pytest.raises(ConfigurationError, match="at least 2 items"):
            partition(8, 8)

    def test_descriptor_offset_is_derived(self):
        assert SubsystemDescriptor(id=3, size=4).offset == 12
        with pytest.raises(ValueError, match="non-negative"):
            SubsystemDescriptor(id=-1, size=4)

    def test_descriptor_local_marked_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SubsystemDescriptor(id=0, size=4, local_marked=frozenset({4}))

    @pytest.mark.parametrize("index", [16, -1])
    def test_marked_outside_database_rejected(self, index):
        # Neither dropped nor wrapped round to the last slice.
        with pytest.raises(ConfigurationError, match="out of range for db-size 16"):
            partition(16, 4, {index})


class TestLocalizeMarked:
    """``partition`` hands each slice the marked indices inside it, shifted
    to local coordinates."""

    def test_shifts_into_local_coordinates(self):
        assert partition(16, 4, {10})[2].local_marked == {2}

    def test_outside_slice_is_empty(self):
        assert partition(16, 4, {10})[0].local_marked == frozenset()

    def test_multiple_indices(self):
        assert partition(16, 4, {4, 7})[1].local_marked == {0, 3}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(partitions())
def test_partition_buckets_match_brute_force_filter(args):
    db_size, num_subsystems, marked = args
    subs = partition(db_size, num_subsystems, marked)
    size = db_size // num_subsystems
    assert [s.id for s in subs] == list(range(num_subsystems))
    for i, sub in enumerate(subs):
        assert sub.size == size and sub.offset == i * size
        assert sub.local_marked == {
            g - i * size for g in marked if i * size <= g < (i + 1) * size
        }
    assert {s.offset + local for s in subs for local in s.local_marked} == marked


class TestRunSubsystemProbe:
    """One slice's probe readout: prepared once, then sampled per trial."""

    def test_no_solution_reads_zero_with_certainty(self):
        prepared = prepared_slice(config(), 0)
        assert prepared.fired_cdf is None
        cdf = expand(prepared.cdf)
        assert cdf[1] == cdf[0]  # no mass on the probe reading 1
        assert prepared.ledger == CostLedger(
            qubits_measured=1, quantum_oracle_calls=1, grover_iterations=0
        )
        (report,) = run_trials(config())
        assert [o.probe_bit for o in report.per_subsystem if o.id != 2] == [0, 0, 0]

    def test_certain_detection_at_four_items(self):
        prepared = prepared_slice(config(marked=(11,)), 2)
        assert sample_cdf(expand(prepared.cdf), np.random.default_rng(0).random()) == 1
        register = np.diff(expand(prepared.fired_cdf), prepend=0.0)
        np.testing.assert_allclose(register, [0, 0, 0, 1], atol=1e-12)
        assert prepared.ledger.quantum_oracle_calls == 2

    def test_detection_rate_matches_closed_form(self):
        (prepared,), _ = prepare(config(db_size=256, num_subsystems=1, marked=(17,)))
        trials = 10_000
        cdf = expand(prepared.cdf)
        hits = sum(sample_cdf(cdf, child_rng(99, t).random()) for t in range(trials))
        expected = success_probability(256, 1, 12)
        assert abs(hits / trials - expected) < 0.01

    def test_ledger_counts_one_boolean_oracle_on_top_of_iterations(self):
        (prepared,), _ = prepare(config(db_size=256, num_subsystems=1, marked=(17,)))
        assert prepared.ledger.quantum_oracle_calls == iteration_count(256, 1) + 1
        assert prepared.ledger.qubits_measured == 1


class TestFindWinner:
    def test_single_set_bit(self):
        decision = find_winner([0, 0, 1, 0])
        assert decision.winners == (2,)
        assert decision.decision_steps == 2

    def test_all_zeros(self):
        decision = find_winner([0, 0, 0, 0])
        assert decision.winners == ()
        assert decision.decision_steps == 0

    def test_multiplicity_returns_every_set_bit(self):
        assert find_winner([1, 0, 1, 0]).winners == (0, 2)

    @pytest.mark.parametrize("count", [2, 4, 8, 16, 64])
    def test_decision_steps_are_logarithmic(self, count):
        for position in range(count):
            bits = [0] * count
            bits[position] = 1
            decision = find_winner(bits)
            assert decision.winners == (position,)
            assert decision.decision_steps == count.bit_length() - 1

    def test_single_subsystem_needs_no_decisions(self):
        assert find_winner([1]) == find_winner([1])
        assert find_winner([1]).decision_steps == 0

    def test_rejects_empty_and_non_bits(self):
        with pytest.raises(ValueError):
            find_winner([])
        with pytest.raises(ValueError):
            find_winner([0, 2])


class TestRecoverGlobal:
    def test_offset_arithmetic(self):
        prepared = prepared_slice(config(), 2)
        assert recover_global(config(), prepared, 2, 1, 0.5) == 10
        # One call per slice covers every trial it won.
        uniforms = np.array([0.0, 0.5, 0.999])
        recovered = recover_global(config(), prepared, 2, np.ones(3, dtype=int), uniforms)
        assert recovered.tolist() == [10] * 3

    def test_round_trip_over_all_slices_and_indices(self):
        # Four-item slices amplify exactly, so recovery is certain.
        for marked in range(16):
            cfg = config(marked=(marked,))
            winner = prepared_slice(cfg, marked // 4)
            assert recover_global(cfg, winner, marked // 4, 1, 0.5) == marked

    def test_requires_probe_one(self):
        prepared = prepared_slice(config(), 2)
        with pytest.raises(ProtocolError, match="read 1"):
            recover_global(config(), prepared, 2, 0, 0.5)
        with pytest.raises(ProtocolError, match="read 1"):
            recover_global(config(), prepared, 2, np.array([1, 0]), np.array([0.5, 0.5]))

    def test_requires_retained_state(self):
        for sub_id, cfg in (
            (0, config()),  # no solution: the probe cannot fire
            (2, config(strategy=SEMICLASSICAL_VERIFY)),  # no probe at all
        ):
            with pytest.raises(ProtocolError, match="retained"):
                recover_global(cfg, prepared_slice(cfg, sub_id), sub_id, 1, 0.5)


class TestProbeStrategy:
    def test_certain_recovery_at_four_item_slices(self):
        report = first_trial(config())
        assert report.winner_subsystem == 2
        assert report.recovered_global_index == 10
        assert report.correct and not report.missed
        assert report.total_ledger.qubits_measured == 6
        assert report.total_ledger.decision_steps == 2
        assert [o.probe_bit for o in report.per_subsystem] == [0, 0, 1, 0]

    def test_no_solution_reports_nothing(self):
        report = first_trial(config(marked=()))
        assert report.winners == ()
        assert report.recovered == ()
        assert report.correct
        assert not report.missed
        assert report.total_ledger.qubits_measured == 4

    def test_high_success_rate_at_large_slices(self):
        cfg = config(db_size=1024, num_subsystems=4, marked=(777,), seed=5, trials=1000)
        reports = run_trials(cfg)
        rate = sum(r.correct for r in reports) / len(reports)
        assert rate >= 0.995
        assert all(r.recovered == (777,) for r in reports if r.correct)

    def test_miss_path_measures_only_probes(self):
        # 8-item slices succeed with probability ~0.945, so misses occur.
        cfg = config(db_size=16, num_subsystems=2, marked=(10,), seed=11, trials=400)
        reports = run_trials(cfg)
        misses = [r for r in reports if r.missed]
        assert misses, "expected at least one miss at this size"
        for report in misses:
            assert report.recovered == ()
            assert not report.correct
            assert report.total_ledger.qubits_measured == 2
        for report in reports:
            if not report.missed:
                assert report.total_ledger.qubits_measured == 2 + 3

    def test_solutionless_subsystems_never_fire(self):
        cfg = config(db_size=1024, num_subsystems=4, marked=(777,), seed=6, trials=200)
        for report in run_trials(cfg):
            for outcome in report.per_subsystem[:3]:
                assert outcome.probe_bit == 0

    def test_multiplicity_recovers_every_solution(self):
        report = first_trial(config(marked=(1, 10)))
        assert report.winners == (0, 2)
        assert report.recovered == (1, 10)
        assert report.correct
        assert report.winner_subsystem is None  # not a unique winner
        assert report.total_ledger.qubits_measured == 4 + 2 * 2


class TestVerifyStrategy:
    def test_certain_verification_at_four_item_slices(self):
        report = first_trial(config(strategy=SEMICLASSICAL_VERIFY))
        assert report.correct
        assert report.recovered == (10,)
        assert report.total_ledger.qubits_measured == 8
        assert report.total_ledger.classical_oracle_calls == 4

    def test_no_solution_fails_every_candidate(self):
        report = first_trial(
            config(marked=(), strategy=SEMICLASSICAL_VERIFY)
        )
        assert report.recovered == ()
        assert report.correct  # truthful empty answer
        assert report.total_ledger.classical_oracle_calls == 4

    def test_costs_and_rate_at_large_slices(self):
        cfg = config(
            db_size=1024,
            num_subsystems=4,
            marked=(777,),
            strategy=SEMICLASSICAL_VERIFY,
            seed=8,
            trials=1000,
        )
        reports = run_trials(cfg)
        assert all(r.total_ledger.qubits_measured == 32 for r in reports)
        rate = sum(r.correct for r in reports) / len(reports)
        assert rate >= 0.995


class TestRepeatStrategy:
    def test_solution_subsystem_always_agrees_at_four_items(self):
        cfg = config(strategy=SEMICLASSICAL_REPEAT, repeat_rounds=2, trials=50, seed=3)
        reports = run_trials(cfg)
        for report in reports:
            assert 10 in report.recovered
            assert report.total_ledger.qubits_measured == 4 * 2 * 2
        assert any(r.recovered == (10,) for r in reports)

    def test_round_bound_is_global_birthday_bound(self):
        with pytest.raises(ConfigurationError, match="sqrt"):
            config(strategy=SEMICLASSICAL_REPEAT, repeat_rounds=4)
        config(strategy=SEMICLASSICAL_REPEAT, repeat_rounds=2).validate()

    def test_rounds_below_two_rejected(self):
        with pytest.raises(ConfigurationError, match="at least 2"):
            config(strategy=SEMICLASSICAL_REPEAT, repeat_rounds=1)

    def test_exact_qubit_count_at_large_slices(self):
        cfg = config(
            db_size=1024,
            num_subsystems=4,
            marked=(777,),
            strategy=SEMICLASSICAL_REPEAT,
            repeat_rounds=3,
            seed=9,
            trials=50,
        )
        for report in run_trials(cfg):
            assert report.total_ledger.qubits_measured == 4 * 3 * 8
            assert report.total_ledger.classical_oracle_calls == 0


class TestSequentialBaseline:
    def test_single_machine_costs(self):
        cfg = config(db_size=1024, num_subsystems=4, marked=(777,), strategy=SEQUENTIAL)
        report = first_trial(cfg)
        assert report.total_ledger.qubits_measured == 10
        assert report.total_ledger.grover_iterations == 25
        assert report.iteration_depth == 25
        assert report.per_subsystem[0].reported_local_index == report.recovered[0]

    def test_correctness_follows_measurement(self):
        cfg = config(strategy=SEQUENTIAL, seed=12, trials=200)
        reports = run_trials(cfg)
        for report in reports:
            assert report.correct == (report.recovered == (10,))
        rate = sum(r.correct for r in reports) / len(reports)
        expected = success_probability(16, 1, 3)
        assert abs(rate - expected) < 0.06


class TestDeterminism:
    def test_identical_config_reproduces_reports(self):
        cfg = config(db_size=64, num_subsystems=4, marked=(37,), seed=123, trials=20)
        assert run_trials(cfg) == run_trials(cfg)

    def test_trials_use_independent_streams(self):
        cfg = config(db_size=16, num_subsystems=2, marked=(10,), seed=123, trials=64)
        reports = run_trials(cfg)
        bits = {tuple(o.probe_bit for o in r.per_subsystem) for r in reports}
        assert len(bits) > 1  # at 8-item slices some probes must miss

    def test_child_rng_is_stable_and_keyed(self):
        a = child_rng(5, 1, 2, 3).random()
        b = child_rng(5, 1, 2, 3).random()
        c = child_rng(5, 1, 2, 4).random()
        assert a == b
        assert a != c

    def test_child_rng_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            child_rng(-1, 0)


class TestConfigValidation:
    """A configuration is checked when it is built, so an unusable one
    never exists."""

    def test_marked_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            config(marked=(16,))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            config(strategy="quantum-telepathy")

    def test_bad_trials_and_seed(self):
        with pytest.raises(ConfigurationError, match="trials"):
            ExperimentConfig(16, 4, frozenset({10}), PROBE, seed=7, trials=0)
        with pytest.raises(ConfigurationError, match="seed"):
            replace(config(), seed=-1)

    def test_oversized_database_rejected(self):
        with pytest.raises(ConfigurationError, match="at most"):
            config(db_size=1 << 26, num_subsystems=4, marked=(0,))

    def test_subsystem_count_bounded(self):
        config(db_size=1 << 18, num_subsystems=1 << 16, marked=(0,)).validate()
        with pytest.raises(ConfigurationError, match="subsystems must be at most 65536"):
            config(db_size=1 << 18, num_subsystems=1 << 17, marked=(0,))
