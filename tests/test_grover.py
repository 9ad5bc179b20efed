"""Search loop, iteration schedule, and the closed-form success probability."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from probegrover import (
    apply_diffusion,
    apply_phase_oracle,
    iteration_count,
    new_uniform,
    run_grover,
    success_probability,
)
from probegrover.grover import outcome_masses

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestIterationCount:
    @pytest.mark.parametrize(
        "size,solutions,expected",
        [(4, 1, 1), (1024, 1, 25), (8, 0, 0), (16, 2, 2), (4, 4, 0)],
    )
    def test_schedule(self, size, solutions, expected):
        assert iteration_count(size, solutions) == expected

    @pytest.mark.parametrize("bad_size", [0, 1, 3, 12, 100, 16.0, pytest.param("16", id="str-16")])
    def test_rejects_bad_sizes(self, bad_size):
        with pytest.raises(ValueError, match="power of two"):
            iteration_count(bad_size, 1)

    @pytest.mark.parametrize("bad_solutions", [-1, 9, 1.5])
    def test_rejects_bad_solution_counts(self, bad_solutions):
        with pytest.raises(ValueError, match="solutions"):
            iteration_count(8, bad_solutions)

    def test_stays_below_quarter_pi_sqrt(self):
        for k in range(1, 13):
            size = 1 << k
            assert iteration_count(size, 1) <= math.ceil(math.pi / 4 * math.sqrt(size))


def test_probability_and_masses_reject_non_integer_solutions():
    with pytest.raises(ValueError, match="solutions"):
        success_probability(16, 1.5, 2)
    with pytest.raises(ValueError, match="solutions"):
        outcome_masses(16, 1.5)


def test_search_space_takes_numpy_integers():
    assert outcome_masses(np.int64(16), np.uint8(1)) == outcome_masses(16, 1)
    assert iteration_count(np.int32(1024), True) == 25


class TestSuccessProbability:
    def test_exact_amplification_at_four_items(self):
        assert success_probability(4, 1, 1) == 1.0

    def test_zero_iterations_is_born_mass(self):
        assert abs(success_probability(4, 1, 0) - 0.25) < 1e-15

    def test_near_certainty_at_256(self):
        p = success_probability(256, 1, 12)
        assert 0.999 < p < 1.0

    def test_no_solutions_means_zero(self):
        assert success_probability(8, 0, 3) == 0.0

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            success_probability(8, 1, -1)

    def test_rejects_non_power_size(self):
        with pytest.raises(ValueError, match="power of two"):
            success_probability(10, 1, 1)


class TestRunGrover:
    def test_exact_amplification_k2(self):
        state, stats = run_grover(2, {3})
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)
        assert stats.iterations == 1
        assert abs(stats.final_success_probability - 1.0) < 1e-12

    def test_empty_marked_runs_zero_iterations(self):
        state, stats = run_grover(3, set())
        np.testing.assert_allclose(state.amplitudes, new_uniform(3).amplitudes, atol=1e-15)
        assert stats.iterations == 0
        assert stats.final_success_probability == 0.0

    def test_matches_closed_form_k8(self):
        _, stats = run_grover(8, {170})
        expected = success_probability(256, 1, 12)
        assert stats.iterations == 12
        assert abs(stats.final_success_probability - expected) < 1e-9

    def test_closed_form_agreement_random_singletons(self):
        rng = np.random.default_rng(31)
        for k in range(2, 13):
            size = 1 << k
            marked = int(rng.integers(0, size))
            _, stats = run_grover(k, {marked})
            expected = success_probability(size, 1, stats.iterations)
            assert abs(stats.final_success_probability - expected) < 1e-9

    def test_argmax_lands_on_marked_index(self):
        rng = np.random.default_rng(32)
        for k in range(2, 13):
            marked = int(rng.integers(0, 1 << k))
            state, _ = run_grover(k, {marked})
            assert int(np.argmax(np.abs(state.amplitudes) ** 2)) == marked

    def test_two_solutions_match_closed_form(self):
        _, stats = run_grover(4, {3, 12})
        expected = success_probability(16, 2, stats.iterations)
        assert abs(stats.final_success_probability - expected) < 1e-9

    @pytest.mark.parametrize("marked", [{-1, 0}, {0, 5}], ids=["negative", "past-end"])
    def test_rejects_out_of_range_marked_without_iterations(self, marked):
        # Both sets hold N=2 items, so the schedule has no iteration.
        with pytest.raises(ValueError, match="out of range"):
            run_grover(1, marked)

    def test_no_solution_neutrality_over_many_steps(self):
        state = new_uniform(3)
        for _ in range(5):
            state = apply_diffusion(apply_phase_oracle(state, set()))
        np.testing.assert_allclose(state.amplitudes, new_uniform(3).amplitudes, atol=1e-12)


def test_matches_golden_state():
    payload = json.loads((GOLDEN_DIR / "grover_k3_marked5.json").read_text())
    state, stats = run_grover(payload["num_qubits"], set(payload["marked"]))
    assert stats.iterations == payload["iterations"]
    expected = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


# sha256 of run_grover(20, marked).amplitudes.tobytes(), written by the dense
# oracle+diffusion loop. At N=2^20 the register's mean is a deep pairwise
# sum, so a numpy whose summation blocking differed fails here.
AMPLITUDE_PINS = [
    ({123456}, 804, "7459e80fe9496b7a1ad9e6f6e68488c5073b83afd94e9fff0518be534e852a2f"),
    ({5, 699050, 1048575}, 464, "93b156eb7759a8ec8a445663ffb2cd8374f6b274558968ef1ae0e437b873458e"),
]


@pytest.mark.parametrize(
    "marked, iterations, digest", AMPLITUDE_PINS, ids=["one-marked", "three-marked"]
)
def test_amplitude_bytes_match_pin_at_twenty_qubits(marked, iterations, digest):
    state, stats = run_grover(20, marked)
    assert stats.iterations == iterations
    assert hashlib.sha256(state.amplitudes.tobytes()).hexdigest() == digest


def bits(values) -> np.ndarray:
    """The raw float64 words, so signed zeros compare too."""
    return np.atleast_1d(values).view(np.uint64)


def dense_grover(num_qubits: int, marked: set[int]) -> np.ndarray:
    """The dense oracle+diffusion loop that ``run_grover`` reproduces."""
    state = new_uniform(num_qubits)
    for _ in range(iteration_count(state.dim, len(marked))):
        state = apply_diffusion(apply_phase_oracle(state, marked))
    return state.amplitudes


@pytest.mark.parametrize("num_qubits", range(1, 15))
def test_matches_dense_loop_bit_for_bit(num_qubits):
    size = 1 << num_qubits
    rng = np.random.default_rng(num_qubits)
    counts = {0, 1, 2, 3, 5, 8, 17, 64, size // 3, size // 2, size - 1, size}
    for count in sorted(c for c in counts if c <= size):
        marked = set(rng.choice(size, count, replace=False).tolist())
        state, _ = run_grover(num_qubits, marked)
        assert np.array_equal(bits(state.amplitudes), bits(dense_grover(num_qubits, marked))), count
