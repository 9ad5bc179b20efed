"""Search loop, iteration schedule, and the closed-form success probability."""

from __future__ import annotations

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

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestIterationCount:
    @pytest.mark.parametrize(
        "size,solutions,expected",
        [(4, 1, 1), (1024, 1, 25), (8, 0, 0), (16, 2, 2), (4, 4, 0)],
    )
    def test_schedule(self, size, solutions, expected):
        assert iteration_count(size, solutions) == expected

    @pytest.mark.parametrize("bad_size", [0, 1, 3, 12, 100])
    def test_rejects_bad_sizes(self, bad_size):
        with pytest.raises(ValueError, match="power of two"):
            iteration_count(bad_size, 1)

    @pytest.mark.parametrize("bad_solutions", [-1, 9])
    def test_rejects_bad_solution_counts(self, bad_solutions):
        with pytest.raises(ValueError, match="solutions"):
            iteration_count(8, bad_solutions)

    def test_stays_below_quarter_pi_sqrt(self):
        for k in range(1, 13):
            size = 1 << k
            assert iteration_count(size, 1) <= math.ceil(math.pi / 4 * math.sqrt(size))


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
