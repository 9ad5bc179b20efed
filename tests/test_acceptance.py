"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from helpers import (
    HIT_256,
    FixedDraw,
    binomial_band,
    ledgers,
    norm_sq,
    random_marked,
    random_state,
    recovered,
    run_cli,
    trial_columns,
)
from probegrover import (
    ExperimentConfig,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    apply_boolean_oracle,
    apply_diffusion,
    apply_phase_oracle,
    compose_with_probe,
    dense_reference_step,
    find_winner,
    iteration_count,
    measure_probe,
    new_uniform,
    run_grover,
    state_from_amplitudes,
    success_probability,
)
from probegrover.distributed import prepare


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number}: {title}")
                raise
            print(f"PASS  criterion {number}: {title}")

        return wrapper

    return decorate


@criterion(1, "simulated success probability matches the closed form to 1e-9")
def test_closed_form_agreement():
    for exponent in (2, 4, 6, 8, 10):
        size = 1 << exponent
        marked = size // 3
        state, stats = run_grover(exponent, {marked})
        assert stats.iterations == math.floor(math.pi / 4 * math.sqrt(size))
        expected = success_probability(size, 1, stats.iterations)
        simulated = abs(state.amplitudes[marked]) ** 2
        assert abs(simulated - expected) < 1e-9


@criterion(2, "four-item slices recover the marked index in 100/100 trials")
def test_certainty_at_four_item_slices():
    cfg = ExperimentConfig(
        db_size=16,
        num_subsystems=4,
        global_marked=frozenset({10}),
        strategy=PROBE,
        seed=2026,
        trials=100,
    )
    _, columns = trial_columns(cfg)
    assert columns.correct.tolist() == [True] * 100
    assert recovered(columns) == [(10,)] * 100


@criterion(3, "probe fires only inside the solution-holding sub-system")
def test_probe_locality():
    cfg = ExperimentConfig(
        db_size=1024,
        num_subsystems=4,
        global_marked=frozenset({777}),
        strategy=PROBE,
        seed=3,
        trials=10_000,
    )
    _, columns = trial_columns(cfg)
    solution_sub = 777 // 256
    assert columns.readouts.shape == (10_000, 4)
    assert not np.delete(columns.readouts, solution_sub, axis=1).any()
    hits = int(columns.readouts[:, solution_sub].sum())
    # p = 0.999947: at most 7 misses (alpha 1e-6), where +-0.01 allowed 100.
    low, high = binomial_band(10_000, HIT_256)
    assert low <= hits <= high


@criterion(4, "qubit totals: probe M+log2(slice) vs verify M*log2 vs repeat M*rounds*log2")
def test_measurement_reduction():
    base = dict(
        db_size=1024, num_subsystems=4, global_marked=frozenset({777}), seed=4, trials=25
    )
    def qubits(strategy, **rounds):
        """Each trial's measured qubits, and whether it missed."""
        trials, columns = trial_columns(ExperimentConfig(strategy=strategy, **base, **rounds))
        missed = (~columns.winners.any(axis=1)).tolist()
        return [ledger.qubits_measured for ledger in ledgers(trials, columns)], missed

    probe, missed = qubits(PROBE)
    assert probe == [4 if miss else 4 + 8 for miss in missed]
    verify, _ = qubits(SEMICLASSICAL_VERIFY)
    assert verify == [4 * 8] * 25
    repeat, _ = qubits(SEMICLASSICAL_REPEAT, repeat_rounds=3)
    assert repeat == [4 * 3 * 8] * 25
    assert not all(missed)
    assert (probe[0], verify[0], repeat[0]) == (12, 32, 96)


@criterion(5, "probe strategy spends exactly one oracle call beyond the iterations")
def test_single_extra_oracle_call():
    for db_size, subsystems, marked in ((1024, 4, 777), (16, 4, 10), (64, 2, 3)):
        cfg = ExperimentConfig(
            db_size=db_size,
            num_subsystems=subsystems,
            global_marked=frozenset({marked}),
            strategy=PROBE,
            seed=5,
            trials=5,
        )
        slice_size = db_size // subsystems
        # A slice's ledger is fixed by its preparation, the same in every trial.
        preparations, which = prepare(cfg)
        calls = 0
        for sub_id, n in enumerate(which.tolist()):
            local = 1 if sub_id == marked // slice_size else 0
            iterations = iteration_count(slice_size, local)
            assert preparations[n].ledger.quantum_oracle_calls == iterations + 1
            calls += iterations + 1
        totals = ledgers(*trial_columns(cfg))
        assert [ledger.quantum_oracle_calls for ledger in totals] == [calls] * 5


@criterion(6, "winner scan spends exactly ceil(log2 M) decisions for one set bit")
def test_logarithmic_decision_cost():
    for count in (2, 4, 8, 16, 64):
        for position in range(count):
            bits = [0] * count
            bits[position] = 1
            decision = find_winner(bits)
            assert decision.winners == (position,)
            assert decision.decision_steps == math.ceil(math.log2(count))


@criterion(7, "probe measurement collapses the register conditionally, to 1e-12")
def test_conditional_collapse():
    dim, solution = 16, 5
    rest = math.sqrt(0.04 / (dim - 1))
    amps = np.full(dim, rest)
    amps[solution] = math.sqrt(0.96)
    composed = apply_boolean_oracle(
        compose_with_probe(state_from_amplitudes(amps)), {solution}
    )

    outcome, post = measure_probe(composed, FixedDraw(0.9))
    assert outcome.bit == 1
    expected = np.zeros(dim)
    expected[solution] = 1.0
    np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)

    outcome, post = measure_probe(composed, FixedDraw(0.001))
    assert outcome.bit == 0
    expected = np.full(dim, 1.0 / math.sqrt(dim - 1))
    expected[solution] = 0.0
    np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)


@criterion(8, "search steps match the dense reference matrix to 1e-12")
def test_dense_reference_equivalence():
    rng = np.random.default_rng(8)
    for num_qubits in range(1, 7):
        step = None
        for _ in range(100):
            state = random_state(rng, num_qubits)
            marked = random_marked(rng, num_qubits)
            step = dense_reference_step(num_qubits, marked)
            via_ops = apply_diffusion(apply_phase_oracle(state, marked))
            np.testing.assert_allclose(
                step @ state.amplitudes, via_ops.amplitudes, atol=1e-12
            )
        dim = 1 << num_qubits
        np.testing.assert_allclose(step.conj().T @ step, np.eye(dim), atol=1e-12)


@criterion(9, "algebraic identities hold and CLI output is byte-deterministic")
def test_algebraic_and_determinism_suite():
    rng = np.random.default_rng(9)
    for _ in range(30):
        num_qubits = int(rng.integers(1, 8))
        state = random_state(rng, num_qubits)
        marked = random_marked(rng, num_qubits)

        flipped = apply_phase_oracle(state, marked)
        assert abs(norm_sq(flipped.amplitudes) - 1) < 1e-12
        np.testing.assert_allclose(
            apply_phase_oracle(flipped, marked).amplitudes, state.amplitudes, atol=1e-12
        )

        reflected = apply_diffusion(state)
        assert abs(norm_sq(reflected.amplitudes) - 1) < 1e-12
        np.testing.assert_allclose(
            apply_diffusion(reflected).amplitudes, state.amplitudes, atol=1e-12
        )

        joint = apply_boolean_oracle(compose_with_probe(state), marked)
        assert abs(norm_sq(joint.amplitudes) - 1) < 1e-12
        np.testing.assert_allclose(
            apply_boolean_oracle(joint, marked).amplitudes,
            compose_with_probe(state).amplitudes,
            atol=1e-12,
        )

    uniform = new_uniform(5)
    np.testing.assert_allclose(
        apply_diffusion(uniform).amplitudes, uniform.amplitudes, atol=1e-12
    )

    argv = [
        "--db-size", "64", "--subsystems", "4", "--marked", "37",
        "--strategy", "all", "--trials", "20", "--seed", "99",
    ]
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)
