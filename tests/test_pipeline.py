"""The prepare → sample → merge trial engine against the per-trial dense
chain it replaces, and the work it does once per configuration."""

from __future__ import annotations

from math import isqrt

import pytest
from hypothesis import assume, given, settings
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
    measure_probe,
    measure_register,
    run_grover,
    run_trials,
)
from probegrover import distributed


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
def configs(draw) -> ExperimentConfig:
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
        global_marked=draw(st.frozensets(st.integers(0, db_size - 1), max_size=4)),
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


@pytest.mark.parametrize(
    "strategy, distinct",
    [(PROBE, 2), (SEMICLASSICAL_VERIFY, 2), (SEMICLASSICAL_REPEAT, 2), (SEQUENTIAL, 1)],
)
def test_grover_runs_once_per_distinct_slice(monkeypatch, strategy, distinct):
    # Marked 37 and 5 both sit at local index 5 of their 16-item slices, so
    # the four slices have two distinct (size, local marked) keys.
    calls = []

    def counting_run_grover(num_qubits, marked):
        calls.append((num_qubits, frozenset(marked)))
        return run_grover(num_qubits, marked)

    monkeypatch.setattr(distributed, "run_grover", counting_run_grover)
    for trials in (1, 40):
        calls.clear()
        cfg = ExperimentConfig(64, 4, frozenset({37, 5}), strategy, seed=1, trials=trials)
        run_trials(cfg)
        assert len(calls) == len(set(calls)) == distinct
