"""Core state-vector operations: construction, oracles, diffusion, probe
composition, and both measurement primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import FixedDraw, norm_sq, random_marked, random_state
from probegrover import (
    InvariantError,
    StateVector,
    apply_boolean_oracle,
    apply_diffusion,
    apply_phase_oracle,
    compose_with_probe,
    dense_reference_step,
    measure_probe,
    measure_register,
    new_uniform,
    run_grover,
    state_from_amplitudes,
)
from probegrover.statevector import sample_cdf


def peaked_composed(num_qubits: int, solution: int, solution_mass: float) -> StateVector:
    """Register with amplitude sqrt(solution_mass) on the solution, uniform
    elsewhere, composed with the probe and passed through the oracle."""
    dim = 1 << num_qubits
    rest = math.sqrt((1.0 - solution_mass) / (dim - 1))
    amps = np.full(dim, rest, dtype=complex)
    amps[solution] = math.sqrt(solution_mass)
    register = state_from_amplitudes(amps)
    return apply_boolean_oracle(compose_with_probe(register), {solution})


class TestNewUniform:
    def test_k1(self):
        state = new_uniform(1)
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_k2(self):
        np.testing.assert_allclose(new_uniform(2).amplitudes, [0.5] * 4, atol=1e-15)

    def test_k3_normalized(self):
        assert abs(norm_sq(new_uniform(3).amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [0, -1, 25, 2.0, 2.5, "3"])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            new_uniform(bad)


class TestStateConstruction:
    def test_from_amplitudes_checks_norm(self):
        with pytest.raises(ValueError, match="not normalized"):
            state_from_amplitudes([1.0, 1.0])

    def test_from_amplitudes_checks_length(self):
        with pytest.raises(ValueError, match="power of two"):
            state_from_amplitudes([1.0, 0.0, 0.0])

    def test_state_vector_shape_check(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(3, dtype=complex))

    def test_state_vector_stores_an_int_qubit_count(self):
        state = StateVector(True, [1.0, 0.0])
        assert type(state.num_qubits) is int and state.num_qubits == 1


class TestPhaseOracle:
    def test_flips_marked_sign(self):
        state = apply_phase_oracle(new_uniform(2), {2})
        np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, -0.5, 0.5], atol=1e-15)

    def test_empty_marked_is_identity(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 3)
        after = apply_phase_oracle(state, set())
        np.testing.assert_array_equal(after.amplitudes, state.amplitudes)

    def test_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            state = random_state(rng, 4)
            marked = random_marked(rng, 4)
            twice = apply_phase_oracle(apply_phase_oracle(state, marked), marked)
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_phase_oracle(new_uniform(2), {4})

    def test_does_not_mutate_input(self):
        state = new_uniform(2)
        before = state.amplitudes.copy()
        apply_phase_oracle(state, {1})
        np.testing.assert_array_equal(state.amplitudes, before)


class TestDiffusion:
    def test_uniform_is_fixed_point(self):
        state = new_uniform(3)
        after = apply_diffusion(state)
        np.testing.assert_allclose(after.amplitudes, state.amplitudes, atol=1e-12)

    def test_hand_computed_reflection(self):
        # mean of [-0.5, 0.5, 0.5, 0.5] is 0.25; each a -> 2*0.25 - a
        state = state_from_amplitudes([-0.5, 0.5, 0.5, 0.5])
        after = apply_diffusion(state)
        np.testing.assert_allclose(after.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = random_state(rng, 4)
            twice = apply_diffusion(apply_diffusion(state))
            np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


class TestComposeWithProbe:
    def test_k1_layout(self):
        alpha, beta = 0.6, 0.8
        joint = compose_with_probe(state_from_amplitudes([alpha, beta]))
        # joint index = (register << 1) | probe
        np.testing.assert_array_equal(joint.amplitudes, [alpha, 0, beta, 0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(14)
        state = random_state(rng, 3)
        joint = compose_with_probe(state)
        assert abs(norm_sq(joint.amplitudes) - 1.0) < 1e-12

    def test_uniform_k2_zero_block(self):
        joint = compose_with_probe(new_uniform(2))
        np.testing.assert_array_equal(joint.amplitudes[0::2], [0.5] * 4)
        assert np.all(joint.amplitudes[1::2] == 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_joint_state_is_one_qubit_larger(self, k):
        joint = compose_with_probe(new_uniform(k))
        assert isinstance(joint, StateVector)
        assert joint.num_qubits == k + 1 and joint.dim == 2 * new_uniform(k).dim


class TestBooleanOracle:
    def test_moves_solution_mass_onto_probe(self):
        composed = peaked_composed(3, solution=5, solution_mass=0.9453125)
        amps = composed.amplitudes
        assert abs(abs(amps[2 * 5 + 1]) ** 2 - 0.9453125) < 1e-12
        assert amps[2 * 5] == 0
        for i in range(8):
            if i != 5:
                assert amps[2 * i + 1] == 0
                assert abs(amps[2 * i]) > 0

    def test_empty_marked_is_identity(self):
        joint = compose_with_probe(new_uniform(2))
        after = apply_boolean_oracle(joint, set())
        np.testing.assert_array_equal(after.amplitudes, joint.amplitudes)

    def test_involution(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            joint = compose_with_probe(random_state(rng, 3))
            marked = random_marked(rng, 3)
            twice = apply_boolean_oracle(apply_boolean_oracle(joint, marked), marked)
            np.testing.assert_allclose(twice.amplitudes, joint.amplitudes, atol=1e-12)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_boolean_oracle(compose_with_probe(new_uniform(2)), {4})


class TestMeasureProbe:
    def test_certain_detection_after_exact_amplification(self):
        # At 4 items and one solution the search ends exactly on the solution,
        # so the probe reads 1 with probability 1 and the register collapses
        # to that basis state.
        state, _ = run_grover(2, {3})
        composed = apply_boolean_oracle(compose_with_probe(state), {3})
        outcome, post = measure_probe(composed, np.random.default_rng(0))
        assert outcome.bit == 1
        assert abs(outcome.probability - 1.0) < 1e-12
        assert outcome.qubits_measured == 1
        np.testing.assert_allclose(post.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_no_solution_reads_zero_with_certainty(self):
        composed = apply_boolean_oracle(compose_with_probe(new_uniform(2)), set())
        outcome, post = measure_probe(composed, np.random.default_rng(1))
        assert outcome.bit == 0
        assert outcome.probability == 1.0
        np.testing.assert_allclose(post.amplitudes, [0.5] * 4, atol=1e-12)

    def test_empirical_rate_tracks_branch_mass(self):
        composed = peaked_composed(4, solution=7, solution_mass=0.96)
        rng = np.random.default_rng(42)
        hits = sum(measure_probe(composed, rng)[0].bit for _ in range(10_000))
        assert abs(hits / 10_000 - 0.96) < 0.02

    def test_zero_state_raises_invariant_error(self):
        dead = StateVector(3, np.zeros(8, dtype=complex))
        with pytest.raises(InvariantError):
            measure_probe(dead, np.random.default_rng(0))

    def test_conditional_collapse_both_branches(self):
        solution, dim = 5, 16
        composed = peaked_composed(4, solution=solution, solution_mass=0.96)

        outcome, post = measure_probe(composed, FixedDraw(0.5))
        assert outcome.bit == 1
        expected = np.zeros(dim)
        expected[solution] = 1.0
        np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)

        outcome, post = measure_probe(composed, FixedDraw(0.001))
        assert outcome.bit == 0
        assert abs(outcome.probability - 0.04) < 1e-12
        expected = np.full(dim, 1.0 / math.sqrt(dim - 1))
        expected[solution] = 0.0
        np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply_boolean_oracle(StateVector(1, [1.0, 0.0]), set()),
        lambda: measure_probe(StateVector(1, [1.0, 0.0]), np.random.default_rng(0)),
    ],
    ids=["apply_boolean_oracle", "measure_probe"],
)
def test_probe_primitives_reject_a_one_qubit_joint_state(call):
    with pytest.raises(ValueError, match="at least 2 qubits"):
        call()


class TestMeasureRegister:
    def test_basis_state_is_certain(self):
        record = measure_register(
            state_from_amplitudes([0, 1, 0, 0]), np.random.default_rng(3)
        )
        assert record.outcome == 1
        assert record.probability == 1.0
        assert record.qubits_measured == 2

    def test_uniform_frequencies(self):
        state = new_uniform(2)
        rng = np.random.default_rng(7)
        counts = np.zeros(4)
        trials = 40_000
        for _ in range(trials):
            counts[measure_register(state, rng).outcome] += 1
        np.testing.assert_allclose(counts / trials, [0.25] * 4, atol=0.01)

    def test_post_amplification_certainty(self):
        state, _ = run_grover(2, {3})
        record = measure_register(state, np.random.default_rng(5))
        assert record.outcome == 3
        assert abs(record.probability - 1.0) < 1e-12


class TestDenseReference:
    def test_empty_marked_equals_diffusion_matrix(self):
        matrix = dense_reference_step(1, set())
        np.testing.assert_allclose(matrix, [[0, 1], [1, 0]], atol=1e-12)
        np.testing.assert_allclose(
            matrix.conj().T @ matrix, np.eye(2), atol=1e-12
        )

    def test_matches_operation_composition(self):
        matrix = dense_reference_step(2, {2})
        state = new_uniform(2)
        via_ops = apply_diffusion(apply_phase_oracle(state, {2}))
        np.testing.assert_allclose(
            matrix @ state.amplitudes, via_ops.amplitudes, atol=1e-12
        )

    def test_unitarity(self):
        matrix = dense_reference_step(3, {0, 5})
        np.testing.assert_allclose(
            matrix.conj().T @ matrix, np.eye(8), atol=1e-12
        )

    def test_size_cap(self):
        with pytest.raises(ValueError, match="dense reference"):
            dense_reference_step(7, {0})

    def test_marked_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            dense_reference_step(2, {9})


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_grover(3, {1.5}),
        lambda: apply_phase_oracle(new_uniform(2), ["3"]),
        lambda: dense_reference_step(2, [2.7]),
    ],
    ids=["run_grover", "apply_phase_oracle", "dense_reference_step"],
)
def test_dense_layer_rejects_non_integer_marked_indices(call):
    with pytest.raises(ValueError, match="must be integers"):
        call()


@pytest.mark.parametrize("bad", [2.0, 2.5, "3"])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: run_grover(k, {1}),
        lambda k: dense_reference_step(k, [1]),
        lambda k: StateVector(k, np.zeros(4, dtype=complex)),
    ],
    ids=["run_grover", "dense_reference_step", "StateVector"],
)
def test_dense_layer_rejects_non_integer_qubit_counts(call, bad):
    with pytest.raises(ValueError, match="num_qubits must be an integer"):
        call(bad)


def test_run_grover_stores_an_int_qubit_count():
    state, _ = run_grover(True, {1})
    assert type(state.num_qubits) is int and state.num_qubits == 1


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: sample_cdf(np.array([math.nan, math.nan]), 0.5), InvariantError),
        (
            lambda: measure_register(StateVector(1, [math.nan, math.nan]), FixedDraw(0.5)),
            InvariantError,
        ),
        (lambda: measure_register(StateVector(1, [math.inf, 0]), FixedDraw(0.5)), InvariantError),
        (
            lambda: measure_probe(
                compose_with_probe(StateVector(1, [math.nan, math.nan])), FixedDraw(0.5)
            ),
            InvariantError,
        ),
        (lambda: state_from_amplitudes([math.nan, 0]), ValueError),
    ],
    ids=["sample_cdf", "measure_register-nan", "measure_register-inf", "measure_probe", "norm"],
)
def test_dense_measurements_reject_nan_and_infinite_masses(call, error):
    with pytest.raises(error):
        call()


def test_dense_layer_takes_numpy_integers_and_bools():
    typed = apply_phase_oracle(new_uniform(2), [np.int64(3), np.uint8(2), True])
    plain = apply_phase_oracle(new_uniform(2), {1, 2, 3})
    assert typed.amplitudes.tolist() == plain.amplitudes.tolist()


class TestNormPreservation:
    def test_every_operation_preserves_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            k = int(rng.integers(1, 7))
            state = random_state(rng, k)
            marked = random_marked(rng, k)
            assert abs(norm_sq(apply_phase_oracle(state, marked).amplitudes) - 1) < 1e-12
            assert abs(norm_sq(apply_diffusion(state).amplitudes) - 1) < 1e-12
            joint = compose_with_probe(state)
            assert abs(norm_sq(joint.amplitudes) - 1) < 1e-12
            joint = apply_boolean_oracle(joint, marked)
            assert abs(norm_sq(joint.amplitudes) - 1) < 1e-12
            _, post = measure_probe(joint, rng)
            assert abs(norm_sq(post.amplitudes) - 1) < 1e-12


class TestSampleCdf:
    """One inverse-CDF routine for a single uniform and for arrays of them."""

    # Unnormalized masses with zero-mass outcomes at indices 1 and 3.
    CDF = np.cumsum([0.1, 0.0, 0.25, 0.0, 0.4])

    def test_array_form_matches_scalar_form(self):
        uniforms = np.array([0.0, 0.1 / 0.75, 0.2, 0.5, 0.9, np.nextafter(1.0, 0.0)])
        drawn = sample_cdf(self.CDF, uniforms.reshape(2, 3))
        singles = [sample_cdf(self.CDF, float(u)) for u in uniforms]
        assert drawn.shape == (2, 3)
        assert drawn.ravel().tolist() == singles == [0, 2, 2, 4, 4, 4]
        assert all(type(i) is int for i in singles)

    def test_zero_mass_raises_for_both_forms(self):
        dead = np.zeros(4)
        with pytest.raises(InvariantError):
            sample_cdf(dead, 0.5)
        with pytest.raises(InvariantError):
            sample_cdf(dead, np.array([0.1, 0.5]))
