"""The prepare → sample → merge trial engine against the per-trial dense
chain it replaces, its ledger identities as closed forms, the columnar
summary against per-trial reports, and the work it does once per
configuration."""

from __future__ import annotations

from dataclasses import replace
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
    apply_boolean_oracle,
    child_rng,
    compose_with_probe,
    find_winner,
    iter_trials,
    iteration_count,
    measure_probe,
    measure_register,
    partition,
    run_grover,
    run_trials,
    summarize,
)
from probegrover import distributed
from probegrover.distributed import count_decision_steps, summarize_trials
from probegrover.grover import run_grover_pair


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
def test_pipeline_matches_dense_chain(cfg):
    for trial, report in enumerate(run_trials(cfg)):
        readouts, recovered, ledger = dense_trial(cfg, trial)
        if cfg.strategy == PROBE:
            assert [o.probe_bit for o in report.per_subsystem] == readouts
        else:
            assert [o.reported_local_index for o in report.per_subsystem] == readouts
        assert report.recovered == recovered
        assert report.total_ledger == ledger


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
    for report in run_trials(cfg):
        # Decision steps depend on where the winners sit; the formula covers
        # every other field.
        expected = closed_form_ledger(cfg, len(report.winners))
        assert replace(report.total_ledger, decision_steps=0) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(configs(), st.integers(1, 3))
def test_trials_do_not_depend_on_the_trial_count(cfg, extra):
    def outcomes(trials):
        return [
            (r.winners, r.recovered, r.total_ledger, r.per_subsystem)
            for r in run_trials(replace(cfg, trials=trials))
        ]

    assert outcomes(cfg.trials + extra)[: cfg.trials] == outcomes(cfg.trials)


@pytest.mark.parametrize(
    "strategy, distinct",
    [(PROBE, 2), (SEMICLASSICAL_VERIFY, 2), (SEMICLASSICAL_REPEAT, 2), (SEQUENTIAL, 1)],
)
def test_grover_runs_once_per_distinct_slice(monkeypatch, strategy, distinct):
    # Marked 37 and 5 both sit at local index 5 of their 16-item slices, so
    # the four slices have two distinct (size, local marked) keys.
    calls = []

    def counting_run_grover_pair(num_qubits, marked):
        calls.append((num_qubits, frozenset(marked)))
        return run_grover_pair(num_qubits, marked)

    monkeypatch.setattr(distributed, "run_grover_pair", counting_run_grover_pair)
    for trials in (1, 40):
        calls.clear()
        cfg = ExperimentConfig(64, 4, frozenset({37, 5}), strategy, seed=1, trials=trials)
        run_trials(cfg)
        assert len(calls) == len(set(calls)) == distinct


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
    expected = list(iter_trials(cfg))
    slices = 1 if strategy == SEQUENTIAL else 16
    for size in (block_keys, chunk_trials * slices):
        monkeypatch.setattr(distributed, "_BLOCK_KEYS", size)
        assert list(iter_trials(cfg)) == expected


def test_recovery_is_sampled_once_per_preparation_per_chunk(monkeypatch):
    # Every 4-item slice holds local solution 0, so one preparation serves
    # all 64 slices, and one Grover iteration makes every probe fire.
    cfg = ExperimentConfig(256, 64, frozenset(range(0, 256, 4)), PROBE, seed=1, trials=3)
    calls, recover_global = [], distributed.recover_global

    def counting_recover_global(config, prepared, sub_id, probe_bit, uniform):
        calls.append(np.size(sub_id))
        return recover_global(config, prepared, sub_id, probe_bit, uniform)

    monkeypatch.setattr(distributed, "recover_global", counting_recover_global)
    reports = list(iter_trials(cfg))
    assert all(len(r.winners) == 64 for r in reports)
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
def test_columnar_summary_equals_summarized_reports(cfg, block_keys):
    # The reports come at the default block size, the summary at the drawn
    # one, which also sets the chunk length: neither the fold nor the
    # chunking may change a total.
    expected = summarize(iter_trials(cfg))
    with mock.patch.object(distributed, "_BLOCK_KEYS", block_keys):
        assert summarize_trials(cfg) == expected


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
    subs = partition(db_size, 1 if strategy == SEQUENTIAL else num_subsystems, marked)
    ledgers = {}
    for sub in subs:
        if sub.local_marked not in ledgers:
            ledgers[sub.local_marked] = distributed._distributions(
                strategy, sub.num_qubits, sub.local_marked, distributed._rounds(cfg)
            )[2]
    classical = len(subs) if strategy == SEMICLASSICAL_VERIFY else 0
    expected = sum(
        (ledgers[sub.local_marked] for sub in subs), CostLedger(classical_oracle_calls=classical)
    )
    assert distributed._fixed_cost(cfg, *distributed.prepare(cfg)) == expected
