"""What ``prepare`` keeps per distinct slice: pinned bytes at the size the
benchmark runs, every mass equal to the dense chain's bit for bit, segments
that replay ``np.cumsum`` and sample as the dense array does, one
preparation per distinct local marked set that ``partition`` hands out, and
memory that grows with neither the slice size nor the repeat rounds."""

from __future__ import annotations

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probegrover import (
    ALL_STRATEGIES,
    ExperimentConfig,
    InvariantError,
    PROBE,
    SEMICLASSICAL_REPEAT,
    SEMICLASSICAL_VERIFY,
    SEQUENTIAL,
    apply_boolean_oracle,
    compose_with_probe,
    partition,
    run_grover,
)
from probegrover import distributed
from probegrover.distributed import prepare, summarize_trials
from probegrover.grover import run_grover_pair
from probegrover.statevector import collapse_probe, probe_branch_masses

from helpers import expand, partitions


def digest(cdf) -> str | None:
    """sha256 of the dense cumulative masses a preparation stands for."""
    return None if cdf is None else hashlib.sha256(expand(cdf).tobytes()).hexdigest()


# sha256 of (cdf, fired_cdf) bytes for each distinct preparation, in the
# order ``prepare`` returns them, at N=2^20 and M=4; written by the dense chain (run_grover's complex
# register, compose_with_probe, apply_boolean_oracle, born masses).
PREPARE_PINS = [
    (
        PROBE,
        {12345},
        [
            (
                "c441c206fb46ea41f42ae0af91ccfcf3f4b99f60f620bce67f6175f971fb85cb",
                "810494951ad4856ffdb503e3e406b3fce1b13ff4630843e179fad8daa11747c9",
            ),
            ("5f07eef034c5a21fedede8ef2f970fefbcc8ea44c02fd970117dacbee5483005", None),
        ],
    ),
    (
        SEQUENTIAL,
        {12345},
        [("7e7dac52ceb310540d4a5b63e1e6d27b8e9d3afe353158e0ce07b6b8abc2a34c", None)],
    ),
    (
        SEMICLASSICAL_VERIFY,
        {5, 140000, 262143},
        [
            ("1b1fb5a3d210ab7a90504951ea6a0611c764a6f1fe530c9380bd11d71abd085e", None),
            ("68da29b17ef1e67a30d47b944238a2a8c5debdf28b763f8a66638f4b34e62ea9", None),
        ],
    ),
]


@pytest.mark.parametrize(
    "strategy, marked, pins", PREPARE_PINS, ids=["probe", "sequential", "verify-three-in-one"]
)
def test_prepared_bytes_match_pin_at_twenty_qubits(strategy, marked, pins):
    preparations, _ = prepare(ExperimentConfig(1 << 20, 4, frozenset(marked), strategy, seed=1))
    assert [(digest(p.cdf), digest(p.fired_cdf)) for p in preparations] == pins


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
def test_prepared_masses_match_dense_chain_bit_for_bit(num_qubits):
    # Calls the mass builder ``prepare`` runs once per distinct slice, so
    # every strategy is covered at every size (a repeat config needs N >= 8).
    size = 1 << num_qubits
    rng = np.random.default_rng(num_qubits)
    counts = {0, 1, 2, 3, 5, 8, 17, 64, size // 3, size // 2, size - 1, size}
    for count in sorted(c for c in counts if c <= size):
        marked = set(rng.choice(size, count, replace=False).tolist())
        for strategy in ALL_STRATEGIES:
            cdf, fired, _ = distributed._distributions(
                strategy, num_qubits, frozenset(marked), 2
            )
            expected_cdf, expected_fired = dense_masses(strategy, num_qubits, marked)
            assert bits(expand(cdf)) == bits(expected_cdf), (strategy, count)
            assert bits(expand(fired)) == bits(expected_fired), (strategy, count)


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
    # The masses are O(K + log N) segments, so the bound is far below one
    # float per item: a constant 64 KiB whatever the slice size (a 2^24-item
    # float buffer alone is 128 MiB), plus the 8-byte slice map. At 2^16
    # two-item slices it admits no Python object per slice.
    cfg = ExperimentConfig(db_size, num_subsystems, frozenset({12345}), strategy, seed=1)
    tracemalloc.start()
    try:
        preparations, which = prepare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(which) + (64 << 10)


@pytest.mark.parametrize("strategy", [SEQUENTIAL, PROBE])
def test_prepare_peak_memory_does_not_grow_with_leaves_sharing_a_pattern(strategy):
    # 8192 marked items 0, 128, 256, ... at N=2^20 (8 Grover iterations) sit
    # in 8192 leaves of the pairwise sum that all share one marked pattern.
    # The leaf sums reduce that pattern once, so the peak is the O(K) mass
    # segments: 3.0 MiB sequential, 3.1 MiB probe, where a row per marked
    # leaf peaked at 9.7 and 10.1 MiB.
    cfg = ExperimentConfig(1 << 20, 1, frozenset(range(0, 1 << 20, 128)), strategy, seed=1)
    tracemalloc.start()
    try:
        prepare(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * (1 << 20)


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
            summarize_trials(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3)  # warm-up: first-call caches are not draw memory
    assert peak(31) <= peak(3) + (256 << 10)


def test_hash_temporaries_of_one_key_block():
    # One _BLOCK_KEYS call in _uniforms' key shape: constant slot and stage,
    # 64 trials x 64 slices. The hash holds its pool as (4, n) uint32 lanes
    # and the PCG64 step as 64-bit words: about 0.6 MiB, where uint64
    # arrays per pool word and 32-bit limbs peaked at 1.16 MiB.
    rows, subs = np.divmod(np.arange(distributed._BLOCK_KEYS), 64)
    keys = np.empty((len(rows), 4), dtype=np.uint64)
    keys[:, 0] = 2
    keys[:, 1] = rows
    keys[:, 2] = subs
    keys[:, 3] = 0
    distributed.first_draws(1, keys)  # warm-up
    tracemalloc.start()
    try:
        distributed.first_draws(1, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.7 * (1 << 20)


# Masses: zero, any float in [0, 1], or a dyadic whose lowest set bit makes
# an addition tie halfway between two floats in some binade the sums pass.
masses = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.builds(math.ldexp, st.integers(1, 2**53 - 1), st.integers(-110, -53)),
)


@st.composite
def two_valued_masses(draw) -> tuple[int, np.ndarray, float, float]:
    """A size up to 2^20, sorted marked indices, and the two masses: drawn,
    or the engine's own register masses after the Grover loop."""
    num_qubits = draw(st.integers(1, 20))
    size = 1 << num_qubits
    count = draw(st.sampled_from([0, 1, size]) | st.integers(0, min(size, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    marked = np.sort(rng.choice(size, count, replace=False)).tolist()
    if draw(st.booleans()):
        unmarked, hit = np.abs(run_grover_pair(num_qubits, marked)[0]) ** 2
    else:
        unmarked, hit = draw(masses), draw(masses)
    return size, np.array(marked, dtype=np.intp), float(unmarked), float(hit)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(two_valued_masses(), st.integers(0, 2**32))
@example((8, np.array([3]), 0.0, 0.0), 0)  # zero total mass
@example((1 << 20, np.array([12345]), 2.0**-20, 0.5), 1)
@example((16, np.arange(16), 0.0, math.ldexp(3, -60)), 2)  # K=N
def test_segments_replay_cumsum_and_sample_as_the_dense_array(args, seed):
    size, indices, unmarked, hit = args
    cdf = distributed._two_valued_cumsum(size, indices, unmarked, hit)
    dense = np.full(size, unmarked)
    dense[indices] = hit
    expected = np.cumsum(dense)
    assert bits(expand(cdf)) == bits(expected)
    if expected[-1] <= 0.0:
        with pytest.raises(InvariantError, match="zero total mass"):
            cdf.sample(0.5)
        return
    # u = 0, the largest uniform below 1, every segment end over the total,
    # and random uniforms.
    uniforms = np.concatenate(
        [[0.0, 1.0 - 2.0**-53], cdf.last / cdf.last[-1], np.random.default_rng(seed).random(500)]
    )
    drawn = np.minimum(np.searchsorted(expected, uniforms * expected[-1], side="right"), size - 1)
    assert cdf.sample(uniforms).tolist() == drawn.tolist()
    assert cdf.sample(float(uniforms[-1])) == drawn[-1]


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
