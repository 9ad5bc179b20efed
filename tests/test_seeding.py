"""``first_draws`` against ``child_rng``: the same first uniform of every
seed-tree stream, bit for bit.

These tests also guard the numpy dependence: ``first_draws`` repeats the
integer arithmetic of numpy's SeedSequence and PCG64, so a numpy whose
seeding differed fails here rather than moving report bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probegrover.distributed import _uniforms
from probegrover.seeding import child_rng, first_draws


def reference(seed: int, keys) -> list[float]:
    return [child_rng(seed, *map(int, key)).random() for key in keys]


# One seed per run-entropy shape: one word, the largest one-word seed, two
# words, and more words than the pool holds.
@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**200 + 17], ids=["0", "2^32-1", "2^32", "2^200+17"]
)
def test_first_draws_match_child_rng(seed):
    keys = np.random.default_rng(seed % 1009).integers(
        0, 2**32, size=(1 << 15, 4), dtype=np.uint64
    )
    assert np.array_equal(first_draws(seed, keys), reference(seed, keys))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**160),
    st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 2**64 - 1), min_size=k, max_size=k),
            min_size=1,
            max_size=8,
        )
    ),
)
def test_first_draws_match_child_rng_on_any_key(seed, keys):
    array = np.array(keys, dtype=np.uint64)
    assert np.array_equal(first_draws(seed, array), reference(seed, keys))


def test_wide_trial_index_is_two_spawn_words():
    keys = [[1, 2**32, 7, 0], [1, 2**40, 7, 2], [1, 2**32 - 1, 7, 0], [2**33, 5, 2**35 + 1, 0]]
    assert np.array_equal(first_draws(9, keys), reference(9, keys))
    # Truncated to 32 bits, trial 2**32 would read as trial 0.
    assert first_draws(9, keys[:1])[0] != child_rng(9, 1, 0, 7, 0).random()


@pytest.mark.parametrize("first_trial", [2**32 - 1, 2**40])
def test_trial_engine_keys_past_32_bits(first_trial):
    # Two trials of 3 slices x 2 rounds from first_trial, as iter_trials
    # would draw them at that trial index.
    uniforms = _uniforms(5, 2, first_trial, 2, 3, 2)
    keys = [
        (2, first_trial + t, sub, stage)
        for t in range(2)
        for sub in range(3)
        for stage in range(2)
    ]
    assert np.array_equal(uniforms.ravel(), reference(5, keys))


@pytest.mark.parametrize(
    "seed, keys",
    [
        (-1, [[0]]),
        (0, [[-1, 2]]),
        (0, [[2**64, 0]]),
        (0, [[0.5]]),
        (0, [[]]),
        (0, [1, 2]),
    ],
)
def test_first_draws_rejects_unusable_input(seed, keys):
    with pytest.raises(ValueError):
        first_draws(seed, keys)
