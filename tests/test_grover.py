"""Search loop, iteration schedule, and the closed-form success probability."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probegrover import (
    apply_diffusion,
    apply_phase_oracle,
    iteration_count,
    new_uniform,
    run_grover,
    success_probability,
)
from probegrover.grover import _COMPLEX_LEAF, _FLOAT_LEAF, _SCALAR_NODES, _TwoValueSum

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
# oracle+diffusion loop; N=2^20 is the size the benchmark runs.
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


@pytest.mark.parametrize("num_qubits", range(1, 21))
def test_two_value_sum_replays_numpy_reduce(num_qubits):
    # Fails if numpy changes the blocking of its pairwise complex sum.
    size = 1 << num_qubits
    rng = np.random.default_rng(100 + num_qubits)
    leaf_edges = {0, 63, 64, 127, 128, size // 2 - 1, size // 2, size - 64, size - 1}
    marked_sets = [
        {i for i in leaf_edges if 0 <= i < size},
        set(rng.choice(size, min(size, 5), replace=False).tolist()),
        set(rng.choice(size, size // 7 + 1, replace=False).tolist()),
    ]
    value_pairs = [
        (complex(*rng.normal(size=2)), complex(*rng.normal(size=2))),
        (complex(rng.normal(), -0.0), complex(-rng.normal(), 0.0)),
        (complex(-0.0, -0.0), complex(-0.0, 0.0)),
        (complex(1e16, 3.0), complex(-1e-3, 1e16)),
    ]
    for marked in marked_sets:
        indices = np.array(sorted(marked))
        total = _TwoValueSum(num_qubits, indices, _COMPLEX_LEAF)
        for unmarked, hit in value_pairs:
            amps = np.full(size, unmarked)
            amps[indices] = hit
            replayed = total(np.complex128(unmarked), np.complex128(hit))
            assert bits(replayed).tolist() == bits(np.add.reduce(amps)).tolist()
            assert bits(replayed / size).tolist() == bits(amps.mean()).tolist()


# Marked-holding node counts around the width where a tree level switches
# from one numpy add to Python scalar additions.
SWITCH_COUNTS = [_SCALAR_NODES - 1, _SCALAR_NODES, _SCALAR_NODES + 1, 2 * _SCALAR_NODES]


def spread(size: int, count: int, offset: int = 0) -> list[int]:
    """``count`` marked items spaced evenly over ``size`` items, so at 2^20
    items each sits in its own leaf and its own parent at both widths, at
    successive offsets inside its leaf."""
    step = size // count
    return [i * step + (offset + i) % step for i in range(count)]


AT_SWITCH = spread(1 << 20, _SCALAR_NODES)
ABOVE_SWITCH = spread(1 << 20, _SCALAR_NODES + 1)
SPACED = list(range(0, 1 << 20, 128))


@st.composite
def two_valued_registers(draw) -> tuple[int, list[int]]:
    """A register size up to 2^20 and its sorted marked indices: none, one,
    all, the items on leaf edges of both widths, a random set, marks in
    distinct leaves with as many marked-holding nodes as the levels around
    the numpy-to-scalar switch have, or every 64th, 128th or 256th item
    (leaves that share one marked pattern)."""
    num_qubits = draw(st.integers(1, 20))
    size = 1 << num_qubits
    shape = draw(st.sampled_from(["none", "one", "all", "edges", "random", "spread", "spaced"]))
    if shape == "none":
        return num_qubits, []
    if shape == "one":
        return num_qubits, [draw(st.integers(0, size - 1))]
    if shape == "all":
        return num_qubits, list(range(size))
    if shape == "edges":
        edges = {0, 63, 64, 127, 128, 255, 256, size // 2 - 1, size // 2, size - 128, size - 64}
        return num_qubits, sorted(i for i in edges | {size - 1} if 0 <= i < size)
    if shape == "spread":
        count = min(size, draw(st.sampled_from(SWITCH_COUNTS)))
        return num_qubits, spread(size, count, draw(st.integers(0, size - 1)))
    if shape == "spaced":
        step = draw(st.sampled_from([64, 128, 256]))
        return num_qubits, list(range(draw(st.integers(0, step - 1)) % size, size, step))
    count = draw(st.integers(1, min(size, 300)))
    return num_qubits, sorted(draw(st.randoms(use_true_random=False)).sample(range(size), count))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    two_valued_registers(),
    st.sampled_from([(np.complex128, _COMPLEX_LEAF), (np.float64, _FLOAT_LEAF)]),
    st.lists(st.floats(-1e200, 1e200), min_size=4, max_size=4),
)
@example((20, []), (np.float64, _FLOAT_LEAF), [0.5, 0.0, 3.0, 0.0])  # no marked item
@example((20, list(range(1 << 20))), (np.float64, _FLOAT_LEAF), [0.1, 0.0, 0.2, 0.0])  # K=N
@example((7, [0, 127]), (np.float64, _FLOAT_LEAF), [0.0, 0.0, 1e-3, 0.0])  # one float leaf
@example((20, [63, 64, 127, 128]), (np.complex128, _COMPLEX_LEAF), [1.0, -0.0, -2.0, 0.0])
# Levels just at, and one just above, the numpy-to-scalar switch.
@example((20, AT_SWITCH), (np.complex128, _COMPLEX_LEAF), [0.3, -1e-9, -0.7, 2.0])
@example((20, ABOVE_SWITCH), (np.complex128, _COMPLEX_LEAF), [0.3, -1e-9, -0.7, 2.0])
@example((20, AT_SWITCH), (np.float64, _FLOAT_LEAF), [1e-300, 0.0, 1e300, 0.0])
@example((20, ABOVE_SWITCH), (np.float64, _FLOAT_LEAF), [1e-300, 0.0, 1e300, 0.0])
# 8192 leaves that all share one marked pattern.
@example((20, SPACED), (np.complex128, _COMPLEX_LEAF), [1e-3, 1e-3, -1.0, -0.0])
@example((20, SPACED), (np.float64, _FLOAT_LEAF), [1e-3, 0.0, 0.5, 0.0])
def test_two_value_sum_replays_add_reduce_at_both_leaf_widths(register, kind, parts):
    # The float width is the probe's branch sums; fails if numpy changes the
    # blocking of its pairwise sum for either dtype.
    num_qubits, marked = register
    dtype, leaf = kind
    if dtype is np.complex128:
        unmarked, hit = dtype(complex(*parts[:2])), dtype(complex(*parts[2:]))
    else:
        unmarked, hit = dtype(parts[0]), dtype(parts[2])
    indices = np.array(marked, dtype=np.intp)
    dense = np.full(1 << num_qubits, unmarked)
    dense[indices] = hit
    replayed = _TwoValueSum(num_qubits, indices, leaf)(unmarked, hit)
    assert type(replayed) is dtype
    assert bits(replayed).tolist() == bits(np.add.reduce(dense)).tolist()


@pytest.mark.parametrize("leaf", [_COMPLEX_LEAF, _FLOAT_LEAF])
@pytest.mark.parametrize("count", SWITCH_COUNTS)
def test_spread_marks_reach_both_kinds_of_level(leaf, count):
    # The spread examples above exercise the switch: numpy levels below it
    # exactly when a level holds more than _SCALAR_NODES marked nodes.
    total = _TwoValueSum(20, np.array(spread(1 << 20, count)), leaf)
    assert bool(total.vector_levels) == (count > _SCALAR_NODES)
    assert total.scalar_adds
