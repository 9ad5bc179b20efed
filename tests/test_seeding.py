"""``first_draws`` against ``child_rng``: the same first uniform of every
seed-tree stream, bit for bit.

These tests also guard the numpy dependence: ``first_draws`` repeats the
integer arithmetic of numpy's SeedSequence and PCG64, so a numpy whose
seeding differed fails here rather than moving report bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probegrover import SEMICLASSICAL_REPEAT, ExperimentConfig
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
# Constant first columns, narrow and wide, before varying ones.
@example(7, [[3, 0, 1], [3, 1, 2**33], [3, 2, 5]])
@example(2**32, [[2**40 + 3, 0], [2**40 + 3, 2**32 - 1]])
# A constant column after a varying one.
@example(0, [[1, 7, 9], [2, 7, 9], [3, 7, 9]])
# Columns wide in some rows only, first and later, then a constant column.
@example(5, [[2**40, 1], [5, 1], [2**64 - 1, 2]])
@example(2**100 + 1, [[1, 2**32, 3], [1, 7, 3], [2, 2**50, 3]])
@example(11, [[2**32 + 1, 0, 7]])
@example(3, np.array([[1, 2**40, 3], [0, 5, 2**62]], dtype=np.int64))
@example(9, (np.arange(48, dtype=np.uint64).reshape(6, 8) << np.uint64(29))[::2, 1::3])
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
    array = keys if isinstance(keys, np.ndarray) else np.array(keys, dtype=np.uint64)
    assert np.array_equal(first_draws(seed, array), reference(seed, keys))


def test_wide_trial_index_is_two_spawn_words():
    keys = [[1, 2**32, 7, 0], [1, 2**40, 7, 2], [1, 2**32 - 1, 7, 0], [2**33, 5, 2**35 + 1, 0]]
    assert np.array_equal(first_draws(9, keys), reference(9, keys))
    # Truncated to 32 bits, trial 2**32 would read as trial 0.
    assert first_draws(9, keys[:1])[0] != child_rng(9, 1, 0, 7, 0).random()


@pytest.mark.parametrize("first_trial", [2**32 - 1, 2**40])
def test_trial_engine_keys_past_32_bits(first_trial):
    # Two stages of two trials of 3 slices from first_trial, drawn only at
    # the live pairs of a ragged mask, as iter_trials would draw them at that
    # trial index.
    cfg = ExperimentConfig(64, 4, frozenset(), SEMICLASSICAL_REPEAT, seed=5)
    live = np.array([[True, False, True], [False, True, True]])
    rows, subs = np.nonzero(live)
    for stage in (0, 1):
        uniforms = _uniforms(cfg, stage, first_trial, rows, subs)
        keys = [(2, first_trial + t, sub, stage) for t, sub in zip(rows.tolist(), subs.tolist())]
        assert np.array_equal(uniforms, reference(5, keys))


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


def test_first_draws_takes_the_seeds_child_rng_takes():
    keys = [[1, 2], [3, 2**40]]
    assert np.array_equal(first_draws(np.uint64(2**63), keys), reference(2**63, keys))
    with pytest.raises(TypeError):
        child_rng(1.5, 0)
    with pytest.raises(TypeError):
        first_draws(1.5, keys)
