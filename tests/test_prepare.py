"""What ``prepare`` keeps per distinct slice: pinned masses at the size the
benchmark runs, masses that are the correctly rounded exact values and
near the dense chain's, a sampler that inverts the exact cumulative
masses, one preparation per distinct local marked set that ``partition``
hands out, and memory that grows with neither the slice size nor the
repeat rounds."""

from __future__ import annotations

import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probegrover import (
    ALL_STRATEGIES,
    ExperimentConfig,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    apply_boolean_oracle,
    compose_with_probe,
    iteration_count,
    partition,
    run_grover,
    run_trials,
    summarize,
)
from probegrover import distributed
from probegrover.distributed import TwoValuedCdf, prepare
from probegrover.grover import outcome_masses
from probegrover.statevector import collapse_probe, probe_branch_masses

from helpers import expand, partitions, recovered, trial_columns


def exact_masses(size: int, solutions: int) -> tuple[Fraction, Fraction]:
    """Each unmarked and each marked item's mass after the scheduled
    iterations, as exact rationals: the amplitude pair, scaled by
    sqrt(size), through one phase oracle and one reflection about the mean
    per iteration."""
    unmarked = hit = Fraction(1)
    for _ in range(iteration_count(size, solutions)):
        mean = ((size - solutions) * unmarked - solutions * hit) / size
        unmarked, hit = 2 * mean - unmarked, 2 * mean + hit
    return unmarked * unmarked / size, hit * hit / size


# Each distinct preparation's slice masses at N=2^20 and M=4, in the order
# ``prepare`` returns them: (solutions, unmarked, marked), the masses as
# float.hex. Each equals exact_masses correctly rounded.
PREPARE_PINS = [
    (
        PROBE,
        {12345},
        [
            (1, "0x1.222646f8653b5p-37", "0x1.ffffb77680645p-1"),
            (0, "0x1.0000000000000p-18", "0x1.0000000000000p-18"),
        ],
    ),
    (SEQUENTIAL, {12345}, [(1, "0x1.04f4eaa680b07p-42", "0x1.fffff7d8592d4p-1")]),
    (
        SEMICLASSICAL_VERIFY,
        {5, 140000, 262143},
        [
            (3, "0x1.56f5a8776ecf4p-36", "0x1.5554e303c8404p-2"),
            (0, "0x1.0000000000000p-18", "0x1.0000000000000p-18"),
        ],
    ),
]


@pytest.mark.parametrize(
    "strategy, marked, pins", PREPARE_PINS, ids=["probe", "sequential", "verify-three-in-one"]
)
def test_prepared_bytes_match_pin_at_twenty_qubits(strategy, marked, pins):
    cfg = ExperimentConfig(1 << 20, 4, frozenset(marked), strategy, seed=1)
    size = cfg.db_size if strategy == SEQUENTIAL else cfg.db_size // cfg.num_subsystems
    preparations, _ = prepare(cfg)
    assert len(preparations) == len(pins)
    for prepared, (count, unmarked, hit) in zip(preparations, pins):
        unmarked, hit = float.fromhex(unmarked), float.fromhex(hit)
        assert (unmarked, hit) == tuple(map(float, exact_masses(size, count)))
        cdf, fired = prepared.cdf, prepared.fired_cdf
        if strategy == PROBE:
            assert (cdf.size, cdf.indices.tolist()) == (2, [1])
            assert (cdf.unmarked, cdf.marked) == ((size - count) * unmarked, count * hit)
            assert (fired is None) == (count == 0)
            if fired is not None:
                assert (len(fired.indices), fired.unmarked, fired.marked) == (count, 0.0, 1.0)
        else:
            assert (cdf.size, len(cdf.indices)) == (size, count)
            assert (cdf.unmarked, cdf.marked) == (unmarked, hit)
            assert fired is None


def bits(values: np.ndarray | None) -> list[int] | None:
    """The raw float64 words, so signed zeros compare too."""
    return None if values is None else values.view(np.uint64).tolist()


def dense_masses(strategy: str, num_qubits: int, marked: set[int]):
    """The cumulative masses a per-trial measurement of the dense state
    sums: run_grover → compose_with_probe → apply_boolean_oracle →
    probe_branch_masses / collapse_probe → np.cumsum(np.abs(·) ** 2)."""
    state, _ = run_grover(num_qubits, marked)
    if strategy != PROBE:
        return np.cumsum(np.abs(state.amplitudes) ** 2), None
    composed = apply_boolean_oracle(compose_with_probe(state), marked)
    masses = probe_branch_masses(composed)
    fired = None
    if masses[1] > 0.0:
        register = collapse_probe(composed, 1, float(masses[1]))
        fired = np.cumsum(np.abs(register.amplitudes) ** 2)
    return np.cumsum(masses), fired


@pytest.mark.parametrize("num_qubits", range(1, 15))
def test_prepared_masses_are_exact_and_near_the_dense_chain(num_qubits):
    # Calls the mass builder ``prepare`` runs once per distinct slice, so
    # every strategy is covered at every size (a repeat config needs N >= 8).
    # Up to 2^12 items the register masses are the exact ones correctly
    # rounded, and the probe's branches, products of them, are within one
    # more rounding. At every size the dense float chain's cumulative masses
    # are within (r + 1) * N * 2^-52 of the prepared ones after r
    # iterations; the largest gap seen is half that bound, at N = 2.
    size = 1 << num_qubits
    rng = np.random.default_rng(num_qubits)
    counts = {0, 1, 2, 3, 5, 8, 17, 64, size // 3, size // 2, size - 1, size}
    for count in sorted(c for c in counts if c <= size):
        marked = set(rng.choice(size, count, replace=False).tolist())
        bound = (iteration_count(size, count) + 1) * size * 2.0**-52
        exact = exact_masses(size, count) if num_qubits <= 12 else None
        for strategy in ALL_STRATEGIES:
            cdf, fired, _ = distributed._distributions(
                strategy, num_qubits, frozenset(marked), 2
            )
            if exact and strategy == PROBE:
                branches = ((size - count) * exact[0], count * exact[1])
                for got, want in zip((cdf.unmarked, cdf.marked), branches):
                    assert abs(Fraction(got) - want) <= want / 2**52, (strategy, count)
            elif exact:
                assert (cdf.unmarked, cdf.marked) == tuple(map(float, exact)), (strategy, count)
            expected_cdf, expected_fired = dense_masses(strategy, num_qubits, marked)
            assert np.abs(expand(cdf) - expected_cdf).max() <= bound, (strategy, count)
            assert (fired is None) == (expected_fired is None)
            if fired is not None:
                # The fired register is held as one unit of mass per marked item.
                assert fired.indices.tolist() == sorted(marked)
                gap = np.abs(expand(fired) / count - expected_fired).max()
                assert gap <= bound, (strategy, count)


@pytest.mark.parametrize(
    "strategy, db_size, num_subsystems",
    [
        (PROBE, 1 << 20, 1),
        (PROBE, 1 << 20, 4),
        (SEQUENTIAL, 1 << 20, 4),
        (PROBE, 1 << 17, 1 << 16),
        (PROBE, 1 << 24, 1),
    ],
    ids=["probe-1", "probe-4", "sequential-4", "probe-65536-n2^17", "probe-1-n2^24"],
)
def test_prepare_peak_memory_is_one_float_per_item_of_each_distinct_slice(
    strategy, db_size, num_subsystems
):
    # The masses are two floats and O(K) sampler tables, so the bound is far
    # below one float per item: a constant 16 KiB whatever the slice size (a
    # 2^24-item float buffer alone is 128 MiB; 2.6-5.2 KiB is seen), plus the
    # 8-byte slice map. At 2^16 two-item slices it admits no Python object
    # per slice.
    cfg = ExperimentConfig(db_size, num_subsystems, frozenset({12345}), strategy, seed=1)
    tracemalloc.start()
    try:
        preparations, which = prepare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(which) + (16 << 10)


@pytest.mark.parametrize("strategy", [SEQUENTIAL, PROBE])
def test_prepare_peak_memory_does_not_grow_with_leaves_sharing_a_pattern(strategy):
    # 8192 marked items 0, 128, 256, ... at N=2^20 (8 Grover iterations) sit
    # in 8192 leaves of numpy's pairwise sum that all share one marked
    # pattern; the exact masses read only their count. The peak is the O(K)
    # marked set and sampler tables: 1.1 MiB for either strategy.
    cfg = ExperimentConfig(1 << 20, 1, frozenset(range(0, 1 << 20, 128)), strategy, seed=1)
    tracemalloc.start()
    try:
        prepare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (1 << 20)


def test_draw_memory_does_not_grow_with_repeat_rounds():
    # 2^12 slices make every chunk one trial; each round is drawn only where
    # the earlier rounds agreed, so 31 rounds hold no more than 3 do.
    def peak(rounds: int) -> int:
        cfg = ExperimentConfig(
            1 << 20, 1 << 12, frozenset({5, 70000}), SEMICLASSICAL_REPEAT,
            seed=1, trials=3, repeat_rounds=rounds,
        )
        tracemalloc.start()
        try:
            summarize(run_trials(cfg))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3)  # warm-up: first-call caches are not draw memory
    assert peak(31) <= peak(3) + (256 << 10)


# Masses: zero, or any float from 2^-80 to 1. The engine's masses are
# never subnormal, where a product would lose its relative precision.
masses = st.just(0.0) | st.floats(2.0**-80, 1.0)


@st.composite
def two_valued_cdfs(draw) -> TwoValuedCdf:
    """A sampler over up to 2^12 items with sorted marked indices and two
    masses: the engine's own register masses, or drawn ones."""
    num_qubits = draw(st.integers(1, 12))
    size = 1 << num_qubits
    count = draw(st.sampled_from([0, 1, size // 2 + 1, size]) | st.integers(0, size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    indices = np.sort(rng.choice(size, count, replace=False)).astype(np.intp)
    if draw(st.booleans()):
        _, unmarked, hit = outcome_masses(size, count)
    else:
        unmarked, hit = draw(masses), draw(masses)
    cdf = TwoValuedCdf(size, indices, unmarked, hit)
    assume(cdf.total > 0.0)
    return cdf


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(two_valued_cdfs(), st.integers(0, 2**32))
@example(TwoValuedCdf(4, np.array([2]), *outcome_masses(4, 1)[1:]), 0)  # unmarked mass 0
@example(TwoValuedCdf(16, np.arange(16), *outcome_masses(16, 16)[1:]), 1)  # K = N
@example(TwoValuedCdf(64, np.arange(1, 64, 2)[:17], *outcome_masses(64, 17)[1:]), 2)  # K > N/2
@example(TwoValuedCdf(2, np.array([1]), 1.0, 0.0), 3)  # a probe that cannot fire
@example(TwoValuedCdf(4096, np.empty(0, np.intp), *outcome_masses(4096, 0)[1:]), 4)  # K = 0
@example(TwoValuedCdf(16, np.array([1, 4, 5, 9]), 0.0, 1.0), 5)  # a fired register
def test_sampler_inverts_the_exact_cdf(cdf, seed):
    # The reference sums the masses as exact rationals. A draw may differ
    # from its exact inverse only where the scaled uniform lies within
    # 2^-48 of the total of an exact boundary: the sampler's few roundings
    # move a boundary by about 12 * 2^-53 of the total. The engine's masses
    # never draw an item of zero mass, even there: its unmarked mass is 0
    # only at K = N/4, where the total is exactly 1, and its marked mass
    # never is.
    size, marked = cdf.size, set(cdf.indices.tolist())
    engine = (cdf.unmarked, cdf.marked) == outcome_masses(size, len(marked))[1:]
    item = [Fraction(cdf.marked if i in marked else cdf.unmarked) for i in range(size)]
    cumulative = list(accumulate(item))
    total = cumulative[-1]
    slack = total / 2**48
    # u = 0, the largest uniform below 1, every marked boundary and its
    # neighbours, and random uniforms.
    ends = np.array([float(cumulative[i] / total) for i in sorted(marked)])
    uniforms = np.concatenate(
        [
            [0.0, 1.0 - 2.0**-53],
            ends,
            np.nextafter(ends, 0.0),
            np.nextafter(ends, 1.0),
            np.random.default_rng(seed).random(200),
        ]
    )
    uniforms = uniforms[uniforms < 1.0]
    drawn = cdf.sample(uniforms)
    assert drawn.dtype == np.intp
    for x, index in zip(uniforms.tolist(), drawn.tolist()):
        scaled = Fraction(x) * total
        low = min(bisect_right(cumulative, scaled - slack), size - 1)
        high = min(bisect_right(cumulative, scaled + slack), size - 1)
        assert low <= index <= high, (x, index, low, high)
        assert item[index] > 0 or not engine, (x, index)
    assert cdf.sample(float(uniforms[-1])) == drawn[-1]
    assert type(cdf.sample(0.5)) is int
    if engine and not marked:
        # Without solutions each mass is exactly 1/N, so a draw is floor(x * N).
        assert drawn.tolist() == np.floor(uniforms * size).astype(np.intp).tolist()
    if (cdf.unmarked, cdf.marked) == (0.0, 1.0):
        # The fired register's form: a draw is marked item floor(x * K),
        # exactly, ties at x = j / K included.
        picks = np.floor(uniforms * len(marked)).astype(np.intp)
        assert drawn.tolist() == cdf.indices[picks].tolist()


def test_probe_fires_when_every_item_is_marked():
    # K = N runs no iteration (floor(pi / 4) = 0), yet all the mass is on
    # marked items, so every probe reads 1 and the register is uniform.
    cfg = ExperimentConfig(16, 4, frozenset(range(16)), PROBE, seed=1, trials=50)
    (prepared,), _ = prepare(cfg)
    assert prepared.ledger.grover_iterations == 0
    assert (prepared.cdf.unmarked, prepared.cdf.marked) == (0.0, 1.0)
    _, columns = trial_columns(cfg)
    assert columns.readouts.tolist() == [[1, 1, 1, 1]] * 50
    assert columns.correct.tolist() == [True] * 50
    assert {i for r in recovered(columns) for i in r} == set(range(16))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(partitions(), st.sampled_from([PROBE, SEMICLASSICAL_VERIFY]))
@example((8, 1, frozenset({3})), PROBE)  # one slice holding a solution
@example((16, 4, frozenset({0, 5, 10, 15})), PROBE)  # every slice holds one
@example((16, 4, frozenset({1, 5, 9})), SEMICLASSICAL_VERIFY)  # equal local sets
def test_slice_map_agrees_with_partition(args, strategy):
    db_size, num_subsystems, marked = args
    cfg = ExperimentConfig(db_size, num_subsystems, marked, strategy, seed=1)
    preparations, which = prepare(cfg)
    buckets = partition(db_size, num_subsystems, marked)
    assert which.dtype == np.intp and len(which) == num_subsystems
    # Two slices share a preparation exactly when their local marked sets
    # are equal, and each preparation holds that set's masses.
    shared = {}
    for i, n in enumerate(which.tolist()):
        assert shared.setdefault(buckets.get(i, frozenset()), n) == n
    assert len(set(shared.values())) == len(shared)
    qubits = (db_size // num_subsystems).bit_length() - 1
    for local, n in shared.items():
        cdf, fired, ledger = distributed._distributions(strategy, qubits, local, 1)
        assert bits(expand(preparations[n].cdf)) == bits(expand(cdf))
        assert bits(expand(preparations[n].fired_cdf)) == bits(expand(fired))
        assert preparations[n].ledger == ledger
    # No preparation goes unused: none is built for an empty set that no
    # slice holds.
    assert sorted(shared.values()) == list(range(len(preparations)))
