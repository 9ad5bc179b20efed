"""``first_draws`` against ``child_rng``: the same first uniform of every
seed-tree stream, bit for bit.

These tests also guard the numpy dependence: ``first_draws`` repeats the
integer arithmetic of numpy's SeedSequence and PCG64, so a numpy whose
seeding differed fails here rather than moving report bytes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probegrover import SEMICLASSICAL_REPEAT, ExperimentConfig, distributed, seeding
from probegrover.seeding import child_rng, first_draws


def reference(seed: int, slot: int, stage: int, trials, subs) -> list[float]:
    return [child_rng(seed, slot, int(t), int(s), stage).random() for t, s in zip(trials, subs)]


# One seed per run-entropy shape: one word, the largest one-word seed, two
# words, and more words than the pool holds.
@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**200 + 17], ids=["0", "2^32-1", "2^32", "2^200+17"]
)
def test_first_draws_match_child_rng(seed):
    rng = np.random.default_rng(seed % 1009)
    trials, subs = rng.integers(0, 2**32, size=(2, 1 << 15), dtype=np.uint64)
    slot, stage = rng.integers(0, 2**32, size=2).tolist()
    expected = reference(seed, slot, stage, trials, subs)
    assert np.array_equal(first_draws(seed, slot, stage, trials, subs), expected)


# Every word fits one spawn-key word; the edges are drawn often, so that
# constant arrays come up too.
words = st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Constant arrays: the trials, the slices, or both.
@example(7, 3, 0, ([5, 5, 5], [0, 1, 2]))
@example(0, 1, 2, ([0, 1, 2], [7, 7, 7]))
@example(2**32, 0, 1, ([4, 4], [9, 9]))
# The largest word in every position, alone and next to smaller ones.
@example(2**100 + 1, 2**32 - 1, 2**32 - 1, ([2**32 - 1], [2**32 - 1]))
@example(11, 2, 0, ([2**32 - 1, 0, 2**32 - 1], [2**32 - 1, 2**32 - 1, 5]))
@example(3, 0, 0, (np.array([1, 2**31], np.int64), np.array([2**32 - 1, 0], np.uint64)))
@given(
    st.integers(0, 2**160),
    words,
    words,
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(*[st.lists(words, min_size=n, max_size=n)] * 2)
    ),
)
def test_first_draws_match_child_rng_on_any_key(seed, slot, stage, pairs):
    trials, subs = pairs
    expected = reference(seed, slot, stage, trials, subs)
    assert np.array_equal(first_draws(seed, slot, stage, trials, subs), expected)


def test_trial_engine_draws_at_the_last_trial_index():
    # The last trial of the largest run a config admits: 3 repeat rounds,
    # round r drawn only at the slices whose rounds 0..r-1 agreed.
    last = 2**32 - 1
    cfg = ExperimentConfig(64, 4, frozenset({5, 37}), SEMICLASSICAL_REPEAT, seed=5, trials=2**32)
    prepared, which = distributed.prepare(cfg)
    order = np.argsort(which, kind="stable")
    columns = distributed._merge(cfg, prepared, which, order, range(last, last + 1))
    expected = []
    for sub in range(4):
        cdf = prepared[which[sub]].cdf
        results = {cdf.sample(child_rng(5, 2, last, sub, r).random()) for r in range(3)}
        expected.append(results.pop() if len(results) == 1 else -1)
    assert columns.readouts.tolist() == [expected]
    assert -1 in expected and len(set(expected)) > 1


@pytest.mark.parametrize(
    "seed, keys",
    [
        (-1, (0, 0, [0], [0])),
        (0, (0, 0, [-1], [2])),
        (0, (0, 0, [2**32], [0])),
        (0, (0, 0, [0.5], [0])),
        (0, (0, 0, [1, 2], [0])),
        (0, (0, 0, [[1]], [[1]])),
        (0, (-1, 0, [0], [0])),
        (0, (0, 2**32, [0], [0])),
        (0, (0, -1, [0], [0])),
        (0, (0, 0, [0], np.array([-1], np.int64))),
        (0, (0, 0, [0], np.array([2**64 - 1], np.uint64))),
        (0, (2**64, 0, [0], [0])),
    ],
)
def test_first_draws_rejects_unusable_input(seed, keys):
    with pytest.raises(ValueError):
        first_draws(seed, *keys)


def test_first_draws_takes_the_seeds_child_rng_takes():
    keys = 1, 0, [2, 3], [2**32 - 1, 0]
    assert np.array_equal(first_draws(np.uint64(2**63), *keys), reference(2**63, *keys))
    with pytest.raises(TypeError):
        child_rng(1.5, 0)
    with pytest.raises(TypeError):
        first_draws(1.5, *keys)


def test_hash_temporaries_of_one_key_block():
    # One _BLOCK_KEYS call as the engine makes it, 64 trials x 64 slices,
    # after a warm-up call. The block is hashed, mixed and folded in place
    # in its pool and one (4, n) array of 64-bit state words: the bound is
    # the 263,676 B measured with numpy 2.4.6, plus 10%.
    trials, subs = np.divmod(np.arange(distributed._BLOCK_KEYS), 64)
    first_draws(1, 2, 0, trials, subs)
    tracemalloc.start()
    try:
        first_draws(1, 2, 0, trials, subs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 263_676


def test_cached_seed_pool_is_read_only_and_draws_repeat():
    keys = 2, 0, np.arange(100), np.arange(100) % 7
    first = first_draws(3, *keys)
    # A block whose pool and state words are written in place.
    first_draws(3, 2, 0, np.arange(5000), np.zeros(5000, np.int64))
    assert np.array_equal(first_draws(3, *keys), first)
    pool, const = seeding._seed_pool(3)
    assert seeding._seed_pool(3)[0] is pool
    assert not pool.flags.writeable and not const.flags.writeable
