"""The prepare → sample → merge trial engine against the per-trial dense
chain it replaces, its ledger identities as closed forms, the summary
against a hand fold of the merged columns, and the work it does once per
configuration."""

from __future__ import annotations

import tracemalloc
from dataclasses import asdict, replace
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probegrover import (
    ALL_STRATEGIES,
    CostLedger,
    ExperimentConfig,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    TrialSummary,
    apply_boolean_oracle,
    child_rng,
    compose_with_probe,
    find_winner,
    iteration_count,
    measure_probe,
    measure_register,
    partition,
    run_grover,
    run_trials,
    summarize,
)
from probegrover import distributed, grover
from probegrover.distributed import count_decision_steps
from probegrover.grover import outcome_masses

from helpers import assert_columns_equal, ledgers, recovered, trial_columns, winners


def dense_trial(cfg: ExperimentConfig, trial: int):
    """One trial rebuilt from scratch with the per-call primitives and the
    same seed-tree keys: run_grover → compose_with_probe →
    apply_boolean_oracle → measure_probe → measure_register.

    Returns each slice's readout (probe bit, measured index, or agreed
    index), the recovered global indices and the trial's total ledger.
    """
    slot = ALL_STRATEGIES.index(cfg.strategy)
    count = 1 if cfg.strategy == SEQUENTIAL else cfg.num_subsystems
    size = cfg.db_size // count
    qubits = size.bit_length() - 1
    rounds = cfg.repeat_rounds if cfg.strategy == SEMICLASSICAL_REPEAT else 1
    readouts, recovered, ledger = [], [], CostLedger()
    for sub in range(count):
        offset = sub * size
        local = {g - offset for g in cfg.global_marked if offset <= g < offset + size}
        state, stats = run_grover(qubits, local)
        if cfg.strategy == PROBE:
            composed = apply_boolean_oracle(compose_with_probe(state), local)
            outcome, register = measure_probe(
                composed, child_rng(cfg.seed, slot, trial, sub, 0)
            )
            readouts.append(outcome.bit)
            ledger += CostLedger(
                qubits_measured=1,
                quantum_oracle_calls=stats.iterations + 1,
                grover_iterations=stats.iterations,
            )
            if outcome.bit:
                rng = child_rng(cfg.seed, slot, trial, sub, 1)
                record = measure_register(register, rng)
                recovered.append(offset + record.outcome)
                ledger += CostLedger(qubits_measured=record.qubits_measured)
            continue
        results = [
            measure_register(state, child_rng(cfg.seed, slot, trial, sub, r)).outcome
            for r in range(rounds)
        ]
        ledger += CostLedger(
            qubits_measured=rounds * qubits,
            quantum_oracle_calls=rounds * stats.iterations,
            grover_iterations=rounds * stats.iterations,
        )
        if cfg.strategy == SEMICLASSICAL_VERIFY:
            readouts.append(results[0])
            if offset + results[0] in cfg.global_marked:
                recovered.append(offset + results[0])
            continue
        agreed = results[0] if len(set(results)) == 1 else None
        readouts.append(agreed)
        if agreed is not None:
            recovered.append(offset + agreed)
    if cfg.strategy == PROBE:
        ledger += CostLedger(decision_steps=find_winner(readouts).decision_steps)
    if cfg.strategy == SEMICLASSICAL_VERIFY:
        ledger += CostLedger(classical_oracle_calls=count)
    return readouts, tuple(recovered), ledger


@st.composite
def configs(draw, max_marked: int = 4) -> ExperimentConfig:
    exponent = draw(st.integers(1, 8))
    db_size = 1 << exponent
    strategy = draw(st.sampled_from(ALL_STRATEGIES))
    rounds = 3
    if strategy == SEMICLASSICAL_REPEAT:
        assume(isqrt(db_size - 1) >= 2)  # 2 <= rounds < sqrt(db_size)
        rounds = draw(st.integers(2, min(isqrt(db_size - 1), 4)))
    return ExperimentConfig(
        db_size=db_size,
        num_subsystems=1 << draw(st.integers(0, exponent - 1)),
        global_marked=draw(st.frozensets(st.integers(0, db_size - 1), max_size=max_marked)),
        strategy=strategy,
        seed=draw(st.integers(0, 2**32)),
        trials=draw(st.integers(1, 3)),
        repeat_rounds=rounds,
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs())
# No solution: the slices' agreed (wrong) indices number 0, 2, 2 and 2.
@example(
    ExperimentConfig(16, 4, frozenset(), SEMICLASSICAL_REPEAT, seed=1, trials=4, repeat_rounds=2)
)
def test_pipeline_matches_dense_chain(cfg):
    # Every draw the merged columns expose, trial by trial: -1 (repeat
    # rounds that disagreed) reads as the dense chain's None. A trial is
    # correct when every index it recovers is a solution and it recovers
    # one exactly when there is a solution to find.
    trials, columns = trial_columns(cfg)
    assert len(columns.readouts) == cfg.trials
    rows = zip(columns.readouts.tolist(), recovered(columns), ledgers(trials, columns))
    for trial, (readouts, found, ledger) in enumerate(rows):
        expected = dense_trial(cfg, trial)
        assert [None if r < 0 else r for r in readouts] == expected[0]
        assert found == expected[1]
        assert ledger == expected[2]
        only_solutions = set(expected[1]) <= cfg.global_marked
        found_iff_any = bool(expected[1]) == bool(cfg.global_marked)
        assert columns.correct[trial] == (only_solutions and found_iff_any)


def closed_form_ledger(cfg: ExperimentConfig, winners: int) -> CostLedger:
    """Each strategy's trial cost from (N, M, R, marked) and the winner count.

    Slices run iteration_count(N/M, local solutions) Grover iterations each;
    the probe adds one boolean-oracle call and one probe qubit per slice and
    measures log2(N/M) qubits per winner, verify measures every register
    once and checks it with one classical call, repeat measures every
    register R times, and sequential measures log2 N qubits once.
    """
    n, m = cfg.db_size, cfg.num_subsystems
    if cfg.strategy == SEQUENTIAL:
        iterations = iteration_count(n, len(cfg.global_marked))
        return CostLedger(
            qubits_measured=n.bit_length() - 1,
            quantum_oracle_calls=iterations,
            grover_iterations=iterations,
        )
    size = n // m
    qubits = size.bit_length() - 1
    local_counts = [0] * m
    for g in cfg.global_marked:
        local_counts[g // size] += 1
    iterations = sum(iteration_count(size, k) for k in local_counts)
    if cfg.strategy == PROBE:
        return CostLedger(
            qubits_measured=m + winners * qubits,
            quantum_oracle_calls=iterations + m,
            grover_iterations=iterations,
        )
    rounds = cfg.repeat_rounds if cfg.strategy == SEMICLASSICAL_REPEAT else 1
    return CostLedger(
        qubits_measured=m * rounds * qubits,
        quantum_oracle_calls=rounds * iterations,
        classical_oracle_calls=m if cfg.strategy == SEMICLASSICAL_VERIFY else 0,
        grover_iterations=rounds * iterations,
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs())
def test_ledger_identities_hold_in_closed_form(cfg):
    trials, columns = trial_columns(cfg)
    assert len(columns.winners) == cfg.trials
    for ledger, won in zip(ledgers(trials, columns), winners(columns)):
        # Decision steps depend on where the winners sit; the formula covers
        # every other field.
        expected = closed_form_ledger(cfg, len(won))
        assert replace(ledger, decision_steps=0) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(configs(), st.integers(1, 3))
def test_trials_do_not_depend_on_the_trial_count(cfg, extra):
    trials, columns = trial_columns(cfg)
    more, longer = trial_columns(replace(cfg, trials=cfg.trials + extra))
    assert (more.fixed, more.depth) == (trials.fixed, trials.depth)
    assert_columns_equal([c[: cfg.trials] for c in longer], columns)


@pytest.mark.parametrize(
    "strategy, distinct",
    [(PROBE, 2), (SEMICLASSICAL_VERIFY, 2), (SEMICLASSICAL_REPEAT, 2), (SEQUENTIAL, 1)],
)
def test_grover_runs_once_per_distinct_slice(monkeypatch, strategy, distinct):
    # Marked 37 and 5 both sit at local index 5 of their 16-item slices, so
    # the four slices have two distinct (size, local marked) keys, with one
    # and no solution: one mass computation each, which also gives the
    # slice's schedule, so each search space is checked once.
    calls, checks = [], []
    check_search_space = grover._check_search_space

    def counting_outcome_masses(size, solutions):
        calls.append((size, solutions))
        return outcome_masses(size, solutions)

    def counting_check_search_space(size, solutions):
        checks.append((size, solutions))
        return check_search_space(size, solutions)

    monkeypatch.setattr(distributed, "outcome_masses", counting_outcome_masses)
    monkeypatch.setattr(grover, "_check_search_space", counting_check_search_space)
    for trials in (1, 40):
        calls.clear()
        checks.clear()
        cfg = ExperimentConfig(64, 4, frozenset({37, 5}), strategy, seed=1, trials=trials)
        summarize(run_trials(cfg))
        assert len(calls) == len(set(calls)) == distinct
        assert len(checks) == distinct


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("block_keys, chunk_trials", [(5, 2), (7, 1), (3, 3)])
def test_chunk_and_block_sizes_never_change_a_trial(monkeypatch, strategy, block_keys, chunk_trials):
    # 16 slices and 3 repeat rounds. A block of fewer keys than slices
    # splits every stage of a one-trial chunk into several blocks; a block of
    # chunk_trials slices' worth of keys makes chunks of that many trials,
    # with a short last chunk of the 7. At the default size all 7 trials are
    # one chunk and every stage one block.
    cfg = ExperimentConfig(
        256, 16, frozenset({3, 40, 41, 200}), strategy, seed=11, trials=7, repeat_rounds=3
    )
    expected, columns = trial_columns(cfg)
    slices = 1 if strategy == SEQUENTIAL else 16
    for size in (block_keys, chunk_trials * slices):
        monkeypatch.setattr(distributed, "_BLOCK_KEYS", size)
        trials, chunked = trial_columns(cfg)
        assert (trials.fixed, trials.depth) == (expected.fixed, expected.depth)
        assert_columns_equal(chunked, columns)


def test_recovery_is_sampled_once_per_preparation_per_chunk(monkeypatch):
    # Every 4-item slice holds local solution 0, so one preparation serves
    # all 64 slices, and one Grover iteration makes every probe fire.
    cfg = ExperimentConfig(256, 64, frozenset(range(0, 256, 4)), PROBE, seed=1, trials=3)
    calls, recover_global = [], distributed.recover_global

    def counting_recover_global(config, prepared, sub_id, probe_bit, uniform):
        calls.append(np.size(sub_id))
        return recover_global(config, prepared, sub_id, probe_bit, uniform)

    monkeypatch.setattr(distributed, "recover_global", counting_recover_global)
    _, columns = trial_columns(cfg)
    assert columns.winners.sum(axis=1).tolist() == [64] * cfg.trials
    preparations, _ = distributed.prepare(cfg)
    chunks = -(-cfg.trials // max(1, distributed._BLOCK_KEYS // 64))
    assert len(calls) <= len(preparations) * chunks
    assert sum(calls) == 64 * cfg.trials


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs(max_marked=12), st.sampled_from([1, 3, 7, 40, 4096]))
@example(ExperimentConfig(256, 1, frozenset({3, 100}), PROBE, seed=4, trials=5), 3)
@example(ExperimentConfig(256, 128, frozenset({0, 1, 7, 255}), PROBE, seed=5, trials=3), 7)
@example(
    ExperimentConfig(64, 8, frozenset(range(0, 64, 3)), SEMICLASSICAL_REPEAT, seed=2, trials=9),
    1,
)
@example(ExperimentConfig(64, 4, frozenset(), SEMICLASSICAL_VERIFY, seed=3, trials=4), 3)
@example(ExperimentConfig(64, 4, frozenset({5, 37}), SEMICLASSICAL_REPEAT, seed=6, trials=25), 40)
def test_summary_equals_a_hand_fold_of_the_columns(cfg, block_keys):
    # The hand fold reads the chunks at the default block size, one trial at
    # a time; the summary reads them at the drawn size, which also sets the
    # chunk length: neither the fold nor the chunking may change a total.
    trials = run_trials(cfg)
    n = successes = misses = depth = 0
    total = CostLedger()
    for columns in trials.chunks:
        for t in range(len(columns.correct)):
            n += 1
            successes += bool(columns.correct[t])
            misses += bool(cfg.global_marked) and not columns.winners[t].any()
            depth += trials.depth
            total += trials.fixed + CostLedger(
                qubits_measured=int(columns.merge_qubits[t]),
                decision_steps=int(columns.decision_steps[t]),
            )
    expected = TrialSummary(
        strategy=cfg.strategy,
        db_size=cfg.db_size,
        num_subsystems=cfg.num_subsystems,
        marked=cfg.global_marked,
        trials=n,
        successes=successes,
        misses=misses,
        empirical_success_rate=successes / n,
        mean_ledger={name: value / n for name, value in asdict(total).items()},
        mean_iteration_depth=depth / n,
    )
    with mock.patch.object(distributed, "_BLOCK_KEYS", block_keys):
        summary = summarize(run_trials(cfg))
    assert summary == expected
    # Equal is not enough for the report bytes: an int mean renders as 12.
    means = [summary.empirical_success_rate, summary.mean_iteration_depth]
    assert all(type(v) is float for v in [*means, *summary.mean_ledger.values()])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10), st.integers(1, 5), st.floats(0, 1), st.integers(0, 2**32))
def test_decision_step_count_equals_find_winner(log_m, rows, density, seed):
    bits = np.random.default_rng(seed).random((rows, 1 << log_m)) < density
    expected = [find_winner(row).decision_steps for row in bits.astype(int).tolist()]
    assert count_decision_steps(bits).tolist() == expected


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize(
    "db_size, num_subsystems, marked",
    [
        (64, 4, {37, 5}),
        (4096, 64, {3, 17, 40, 322, 370, 2119, 4095}),
        (1 << 17, 1 << 16, {0, 5, 131071}),
    ],
    ids=["n64-m4", "n4096-m64", "n2^17-m2^16"],
)
def test_fixed_cost_equals_the_sum_of_slice_ledgers(strategy, db_size, num_subsystems, marked):
    # The reference builds every slice's ledger from ``partition``, not from
    # ``prepare``'s slice map; equal local sets reuse one search.
    cfg = ExperimentConfig(db_size, num_subsystems, frozenset(marked), strategy, seed=1)
    count = 1 if strategy == SEQUENTIAL else num_subsystems
    buckets = partition(db_size, count, marked)
    slices = [buckets.get(i, frozenset()) for i in range(count)]
    qubits = (db_size // count).bit_length() - 1
    ledgers = {}
    for local in slices:
        if local not in ledgers:
            ledgers[local] = distributed._distributions(
                strategy, qubits, local, distributed._rounds(cfg)
            )[2]
    classical = count if strategy == SEMICLASSICAL_VERIFY else 0
    expected = sum(
        (ledgers[local] for local in slices), CostLedger(classical_oracle_calls=classical)
    )
    assert distributed._fixed_cost(cfg, *distributed.prepare(cfg)) == expected


def test_exhausted_trials_keep_no_per_slice_state():
    # A Trials holds the slice map and the preparations of its 2^16 slices
    # (about 16 B per slice) until its chunks are read. Once summarize has
    # read them, the Trials and its summary together keep less than a byte
    # per slice: the generator let go of its per-slice state.
    cfg = ExperimentConfig(1 << 17, 1 << 16, frozenset({5, 70000}), PROBE, seed=1, trials=3)
    summarize(run_trials(cfg))  # one-time allocations of numpy and the package
    tracemalloc.start()
    try:
        trials = run_trials(cfg)
        summary = summarize(trials)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert summary.trials == 3
    assert kept < cfg.num_subsystems
