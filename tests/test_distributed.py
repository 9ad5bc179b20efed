"""Distributed protocol: partitioning, offsets, slice preparation and
recovery, the probe strategy, both semi-classical strategies, the
sequential baseline, and determinism."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probegrover import (
    ConfigurationError,
    CostLedger,
    ExperimentConfig,
    PROBE,
    ProtocolError,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    TrialSummary,
    child_rng,
    find_winner,
    iteration_count,
    partition,
    run_trials,
    summarize,
)
from probegrover.distributed import ALL_STRATEGIES, prepare, recover_global
from probegrover.statevector import sample_cdf

from helpers import (
    HIT_16,
    HIT_256,
    assert_columns_equal,
    binomial_band,
    expand,
    ledgers,
    partitions,
    recovered,
    trial_columns,
    winners,
)


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


def prepared_slice(cfg: ExperimentConfig, sub_id: int):
    """The preparation slice ``sub_id`` of ``cfg`` draws from."""
    preparations, which = prepare(cfg)
    return preparations[which[sub_id]]


class TestPartition:
    def test_equal_slices_with_running_offsets(self):
        # Slice i holds global indices 4i .. 4i + 3.
        assert partition(16, 4, {0, 3, 4, 7, 8, 11, 12, 15}) == {i: {0, 3} for i in range(4)}
        assert partition(16, 4) == {}

    def test_single_subsystem_degenerates_to_whole_database(self):
        assert partition(8, 1, {0, 7}) == {0: {0, 7}}

    def test_non_dividing_count_rejected(self):
        with pytest.raises(ConfigurationError):
            partition(8, 3)

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            partition(12, 4)

    def test_slices_smaller_than_two_rejected(self):
        with pytest.raises(ConfigurationError, match="at least 2 items"):
            partition(8, 8)

    @pytest.mark.parametrize("index", [16, -1])
    def test_marked_outside_database_rejected(self, index):
        # Neither dropped nor wrapped round to the last slice.
        with pytest.raises(ConfigurationError, match="out of range for db-size 16"):
            partition(16, 4, {index})

    @pytest.mark.parametrize("args", [(16, 4, [1.5]), (16.0, 4), (16, 4, ["3"])])
    def test_non_integers_rejected(self, args):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            partition(*args)


class TestLocalizeMarked:
    """``partition`` hands each slice the marked indices inside it, shifted
    to local coordinates."""

    def test_shifts_into_local_coordinates(self):
        assert partition(16, 4, {10}) == {2: {2}}

    def test_outside_slice_is_empty(self):
        # A slice without a solution is absent from the map.
        assert 0 not in partition(16, 4, {10})

    def test_multiple_indices(self):
        assert partition(16, 4, {4, 7})[1] == {0, 3}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(partitions())
def test_partition_buckets_match_brute_force_filter(args):
    # The reference for the one bucketing that ``partition`` and ``prepare`` share.
    db_size, num_subsystems, marked = args
    buckets = partition(db_size, num_subsystems, marked)
    size = db_size // num_subsystems
    expected = {
        i: {g - i * size for g in marked if i * size <= g < (i + 1) * size}
        for i in range(num_subsystems)
    }
    assert buckets == {i: local for i, local in expected.items() if local}
    assert list(buckets) == sorted(buckets)
    assert all(type(i) is int and type(v) is frozenset for i, v in buckets.items())


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
        _, columns = trial_columns(config())
        assert np.delete(columns.readouts[0], 2).tolist() == [0, 0, 0]

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
        # p = 0.999947: at most 7 misses (alpha 1e-6), where +-0.01 allowed 100.
        low, high = binomial_band(trials, HIT_256)
        assert low <= hits <= high

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

    @pytest.mark.parametrize("bits", [[0.5, 1.9], ["1", "0"], [1.0, 0]])
    def test_rejects_non_integer_bits(self, bits):
        with pytest.raises(ValueError, match="only 0 or 1"):
            find_winner(bits)

    def test_takes_numpy_integers_and_bools(self):
        assert find_winner(np.array([False, True])).winners == (1,)
        assert find_winner([np.int64(0), True, np.uint8(1), 0]).winners == (1, 2)


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
        trials, columns = trial_columns(config())
        assert winners(columns) == [(2,)]
        assert recovered(columns) == [(10,)]
        assert columns.correct.tolist() == [True]
        (ledger,) = ledgers(trials, columns)
        assert ledger.qubits_measured == 6
        assert ledger.decision_steps == 2
        assert columns.readouts.tolist() == [[0, 0, 1, 0]]

    def test_no_solution_reports_nothing(self):
        trials, columns = trial_columns(config(marked=()))
        assert winners(columns) == [()]
        assert recovered(columns) == [()]
        assert columns.correct.tolist() == [True]
        assert ledgers(trials, columns)[0].qubits_measured == 4

    def test_high_success_rate_at_large_slices(self):
        cfg = config(db_size=1024, num_subsystems=4, marked=(777,), seed=5, trials=1000)
        _, columns = trial_columns(cfg)
        assert columns.correct.mean() >= 0.995
        correct = columns.correct.tolist()
        assert all(r == (777,) for r, ok in zip(recovered(columns), correct) if ok)

    def test_miss_path_measures_only_probes(self):
        # 8-item slices succeed with probability ~0.945, so misses occur.
        cfg = config(db_size=16, num_subsystems=2, marked=(10,), seed=11, trials=400)
        trials, columns = trial_columns(cfg)
        missed = (~columns.winners.any(axis=1)).tolist()
        assert any(missed), "expected at least one miss at this size"
        rows = zip(missed, recovered(columns), columns.correct.tolist(), ledgers(trials, columns))
        for miss, found, correct, ledger in rows:
            if miss:
                assert found == ()
                assert not correct
                assert ledger.qubits_measured == 2
            else:
                assert ledger.qubits_measured == 2 + 3

    def test_solutionless_subsystems_never_fire(self):
        cfg = config(db_size=1024, num_subsystems=4, marked=(777,), seed=6, trials=200)
        _, columns = trial_columns(cfg)
        assert len(columns.readouts) == 200
        assert not columns.readouts[:, :3].any()

    def test_multiplicity_recovers_every_solution(self):
        trials, columns = trial_columns(config(marked=(1, 10)))
        assert winners(columns) == [(0, 2)]  # not a unique winner
        assert recovered(columns) == [(1, 10)]
        assert columns.correct.tolist() == [True]
        assert ledgers(trials, columns)[0].qubits_measured == 4 + 2 * 2


class TestVerifyStrategy:
    def test_certain_verification_at_four_item_slices(self):
        trials, columns = trial_columns(config(strategy=SEMICLASSICAL_VERIFY))
        assert columns.correct.tolist() == [True]
        assert recovered(columns) == [(10,)]
        (ledger,) = ledgers(trials, columns)
        assert ledger.qubits_measured == 8
        assert ledger.classical_oracle_calls == 4

    def test_no_solution_fails_every_candidate(self):
        trials, columns = trial_columns(config(marked=(), strategy=SEMICLASSICAL_VERIFY))
        assert recovered(columns) == [()]
        assert columns.correct.tolist() == [True]  # truthful empty answer
        assert ledgers(trials, columns)[0].classical_oracle_calls == 4

    def test_costs_and_rate_at_large_slices(self):
        cfg = config(
            db_size=1024,
            num_subsystems=4,
            marked=(777,),
            strategy=SEMICLASSICAL_VERIFY,
            seed=8,
            trials=1000,
        )
        trials, columns = trial_columns(cfg)
        assert [ledger.qubits_measured for ledger in ledgers(trials, columns)] == [32] * 1000
        assert columns.correct.mean() >= 0.995


class TestRepeatStrategy:
    def test_solution_subsystem_always_agrees_at_four_items(self):
        cfg = config(strategy=SEMICLASSICAL_REPEAT, repeat_rounds=2, trials=50, seed=3)
        trials, columns = trial_columns(cfg)
        found = recovered(columns)
        assert len(found) == 50 and all(10 in r for r in found)
        assert [ledger.qubits_measured for ledger in ledgers(trials, columns)] == [4 * 2 * 2] * 50
        assert (10,) in found

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
        trials, columns = trial_columns(cfg)
        assert len(columns.correct) == 50
        for ledger in ledgers(trials, columns):
            assert ledger.qubits_measured == 4 * 3 * 8
            assert ledger.classical_oracle_calls == 0


class TestSequentialBaseline:
    def test_single_machine_costs(self):
        cfg = config(db_size=1024, num_subsystems=4, marked=(777,), strategy=SEQUENTIAL)
        trials, columns = trial_columns(cfg)
        (ledger,) = ledgers(trials, columns)
        assert ledger.qubits_measured == 10
        assert ledger.grover_iterations == 25
        assert trials.depth == 25
        assert [tuple(row) for row in columns.readouts.tolist()] == recovered(columns)

    def test_correctness_follows_measurement(self):
        # p = 0.961319. At 200 trials the alpha 1e-6 band (176-200) is wider
        # than the old +-0.06 (181-200); at 400 it is 363-399, inside it.
        cfg = config(strategy=SEQUENTIAL, seed=12, trials=400)
        _, columns = trial_columns(cfg)
        correct = columns.correct.tolist()
        assert correct == [r == (10,) for r in recovered(columns)]
        low, high = binomial_band(400, HIT_16)
        assert low <= sum(correct) <= high


class TestUncertainOutcomes:
    """Hit rates where a miss is likely enough that a wrong mass shows.

    Each p is sin^2((2r+1) theta) with s = sin theta = sqrt(t/n), expanded
    by sin 3 theta = s(3 - 4s^2) and sin 5 theta = s(16s^4 - 20s^2 + 5); each band is
    the alpha 1e-6 interval at 10,000 trials.
    """

    TRIALS = 10_000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_probe_hit_rate_at_eight_item_slices(self, seed):
        # n = 8, t = 1, r = 2: s^2 = 1/8, sin 5 theta = s(1/4 - 5/2 + 5) = 11s/4,
        # so p = 121/128 (band 9339-9561); only the marked slice can fire.
        cfg = ExperimentConfig(32, 4, {13}, PROBE, seed=seed, trials=self.TRIALS)
        _, columns = trial_columns(cfg)
        low, high = binomial_band(self.TRIALS, 121 / 128)
        assert low <= int(columns.correct.sum()) <= high

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repeat_agreement_goes_as_p_to_the_rounds(self, seed):
        # Each of 2 rounds hits with p = 121/128 as above, so both agree on
        # the solution with p = (121/128)^2 (band 8782-9084).
        cfg = ExperimentConfig(
            8, 1, {5}, SEMICLASSICAL_REPEAT, seed=seed, trials=self.TRIALS, repeat_rounds=2
        )
        _, columns = trial_columns(cfg)
        low, high = binomial_band(self.TRIALS, (121 / 128) ** 2)
        assert low <= int(columns.correct.sum()) <= high

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_each_marked_index_reported_with_its_share(self, seed):
        # n = 16, t = 3, r = 1: s^2 = 3/16, sin 3 theta = s(3 - 3/4) = 9s/4, so a
        # solution is measured with p = 243/256, each of the three with
        # p = 81/256 (band 2938-3393).
        cfg = ExperimentConfig(
            16, 1, {1, 6, 11}, SEMICLASSICAL_VERIFY, seed=seed, trials=self.TRIALS
        )
        _, columns = trial_columns(cfg)
        low, high = binomial_band(self.TRIALS, 81 / 256)
        for index in (1, 6, 11):
            assert low <= int((columns.readouts[:, 0] == index).sum()) <= high


class TestDeterminism:
    def test_identical_config_reproduces_reports(self):
        cfg = config(db_size=64, num_subsystems=4, marked=(37,), seed=123, trials=20)
        (first, columns), (second, again) = trial_columns(cfg), trial_columns(cfg)
        assert (first.fixed, first.depth) == (second.fixed, second.depth)
        assert_columns_equal(columns, again)

    def test_trials_use_independent_streams(self):
        cfg = config(db_size=16, num_subsystems=2, marked=(10,), seed=123, trials=64)
        _, columns = trial_columns(cfg)
        bits = {tuple(row) for row in columns.readouts.tolist()}
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

    def test_trials_bounded_so_a_trial_index_is_one_key_word(self):
        assert config(trials=2**32).trials == 2**32
        with pytest.raises(ConfigurationError, match=r"trials must be between 1 and 2\*\*32"):
            config(trials=2**32 + 1)

    def test_oversized_database_rejected(self):
        with pytest.raises(ConfigurationError, match="at most"):
            config(db_size=1 << 26, num_subsystems=4, marked=(0,))

    def test_subsystem_count_bounded(self):
        config(db_size=1 << 18, num_subsystems=1 << 16, marked=(0,)).validate()
        with pytest.raises(ConfigurationError, match="subsystems must be at most 65536"):
            config(db_size=1 << 18, num_subsystems=1 << 17, marked=(0,))

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("trials", 2.5), ("repeat_rounds", 2.5), ("db_size", 16.0),
         ("num_subsystems", "4"), ("global_marked", 777), ("global_marked", None),
         ("global_marked", 1.5)],
    )
    def test_non_integer_fields_rejected(self, field, value):
        kwargs = {
            "db_size": 16, "num_subsystems": 4, "global_marked": {10},
            "strategy": SEMICLASSICAL_REPEAT, "seed": 7, "repeat_rounds": 2, field: value,
        }
        expected = "an iterable of integers" if field == "global_marked" else "an integer"
        with pytest.raises(ConfigurationError, match=f"{field} must be {expected}"):
            ExperimentConfig(**kwargs)

    def test_non_integer_marked_index_rejected(self):
        with pytest.raises(ConfigurationError, match="marked index must be an integer"):
            config(db_size=1024, marked=(777.0,))

    def test_integer_types_are_stored_as_int(self):
        cfg = config(seed=np.uint64(7), marked=(np.int32(10),), trials=np.int64(2))
        assert (cfg.seed, cfg.trials, cfg.global_marked) == (7, 2, {10})
        assert all(type(v) is int for v in (cfg.seed, cfg.trials, *cfg.global_marked))

    @pytest.mark.parametrize("strategy", [PROBE, SEMICLASSICAL_VERIFY, SEQUENTIAL])
    def test_repeat_rounds_checked_for_every_strategy(self, strategy):
        with pytest.raises(ConfigurationError, match="at least 2"):
            config(strategy=strategy, repeat_rounds=-3)
        # The sqrt(db-size) bound is the repeat strategy's only: 3 * 3 >= 8.
        config(db_size=8, num_subsystems=2, marked=(3,), strategy=strategy, repeat_rounds=3)


# How a caller may pass an integer, and the other kinds of value it may pass
# by mistake: floats, strings, None and a non-iterable object. Python ints
# are listed thrice so that enough drawn configs are valid and get run.
INTEGER_KINDS = [int, int, int, np.int64, np.int32, bool]
MISTAKEN_KINDS = [float, lambda v: v + 0.5, str, lambda v: None, lambda v: object()]


def argument(draw, ints: st.SearchStrategy, mistaken: bool):
    kinds = MISTAKEN_KINDS if mistaken else INTEGER_KINDS
    return draw(st.sampled_from(kinds))(draw(ints))


def marked_argument(draw, mistaken: bool):
    """A list, tuple, set, frozenset or one-shot iterator of index
    arguments. A mistaken one holds one index of another kind, or is a
    non-iterable or a string in its place."""
    indices = st.integers(-1, 15)
    items = [argument(draw, indices, False) for _ in range(draw(st.integers(0, 4)))]
    container = draw(st.sampled_from([list, tuple, set, frozenset, iter]))
    if not mistaken:
        return container(items)
    shape = draw(st.sampled_from(["item", "scalar", "string"]))
    if shape == "item":
        return container([*items, argument(draw, indices, True)])
    if shape == "scalar":
        return argument(draw, indices, draw(st.booleans()))
    return "".join(map(str, items))


@st.composite
def call_arguments(draw, fields: tuple[str, ...]) -> dict:
    """Arguments for ``fields`` of ``ExperimentConfig``, each an integer of
    some integer type, with up to two of them passed as another kind."""
    count = draw(st.sampled_from([0, 0, 1, 2]))
    mistaken = set(draw(st.lists(st.sampled_from(fields), min_size=count, max_size=count)))
    ints = {
        "db_size": st.sampled_from([16, 32, 64, 4]),
        "num_subsystems": st.sampled_from([1, 2, 4, 8]),
        "seed": st.integers(0, 2**31 - 1),
        "trials": st.integers(1, 3),
        "repeat_rounds": st.integers(2, 5),
    }
    kwargs = {}
    for name in fields:
        if name == "global_marked":
            kwargs[name] = marked_argument(draw, name in mistaken)
        elif name == "strategy":
            kwargs[name] = (
                argument(draw, st.integers(0, 3), True)
                if name in mistaken
                else draw(st.sampled_from(ALL_STRATEGIES))
            )
        else:
            kwargs[name] = argument(draw, ints[name], name in mistaken)
    return kwargs


CONFIG_FIELDS = (
    "db_size", "num_subsystems", "global_marked", "strategy", "seed", "trials", "repeat_rounds"
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call_arguments(CONFIG_FIELDS))
def test_config_builds_and_runs_or_raises_configuration_error(kwargs):
    try:
        cfg = ExperimentConfig(**kwargs)
    except ConfigurationError:
        return
    summary = summarize(run_trials(cfg))
    assert type(summary) is TrialSummary and summary.trials == cfg.trials


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(call_arguments(("db_size", "num_subsystems", "global_marked")))
def test_partition_buckets_or_raises_configuration_error(kwargs):
    try:
        buckets = partition(**kwargs)
    except ConfigurationError:
        return
    num_subsystems = int(kwargs["num_subsystems"])
    size = int(kwargs["db_size"]) // num_subsystems
    assert list(buckets) == sorted(buckets)
    for i, local in buckets.items():
        assert type(i) is int and 0 <= i < num_subsystems
        assert type(local) is frozenset and local
        assert all(type(j) is int and 0 <= j < size for j in local)
