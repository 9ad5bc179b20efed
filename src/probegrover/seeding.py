"""Deterministic seed splitting for trials and sub-systems.

One master seed fans out into independent child streams keyed by the
words (strategy slot, trial, sub-system, stage). Because every consumer
owns its own stream, results are identical whether sub-systems execute
serially or in parallel, and each strategy reproduces the same numbers
whether it runs alone or inside a combined batch.

``child_rng`` builds one stream: numpy's ``SeedSequence`` with the key as
its spawn key, feeding ``PCG64``. The trial engine reads each stream once,
so ``first_draws`` computes the first ``random()`` of many streams at once
by repeating that fixed integer arithmetic on numpy arrays; the two agree
bit for bit, and the tests compare them on every seed class. Each key word
is one uint32 word of the spawn key, so every word is checked to lie in
[0, 2**32). The SeedSequence pool is held as four uint32 lanes, a (4, n)
array whose products wrap mod 2**32 as numpy's do, so one operation
hashes and mixes a key word into all four pool words of every stream; a
word that is the same for every stream is hashed once, at shape (4, 1).
PCG64 seeds with state 0 and inc = (initseq << 1) | 1, steps, adds
initstate and steps again, and the first draw steps once more. Each step
is s -> s*m + inc, so the state it outputs from is
inc*(m**2 + m + 1) + initstate*m**2 mod 2**128: two products with
constants, computed on 64-bit words.
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF

# SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# The hash constant advances once per pool word: a word absorbed from
# constant c is xored into lane d with c*MULT_A**d and multiplied by
# c*MULT_A**(d + 1), leaving c*MULT_A**4 for the next word.
_ABSORB = np.array([[pow(_MULT_A, d, 1 << 32)] for d in range(5)], np.uint32)
# generate_state(4, uint64) hashes eight words cycling over the lanes with
# its own constant, which starts at INIT_B.
_STATE = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _M32 for i in range(9)], np.uint32)
_STATE_XOR, _STATE_MULT = _STATE[:8].reshape(2, 4, 1), _STATE[1:].reshape(2, 4, 1)

# PCG64 (numpy/random/src/pcg64/pcg64.h): the two rows multiply initstate
# and inc, as high and low 64-bit words and the low word's 32-bit halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_FOLD = [_PCG_MULT**2 % (1 << 128), (_PCG_MULT**2 + _PCG_MULT + 1) % (1 << 128)]
_FOLD_HI, _FOLD_LO = np.array([divmod(c, 1 << 64) for c in _FOLD], np.uint64).T[:, :, None]
_FOLD_LO0, _FOLD_LO1 = _FOLD_LO & _M32, _FOLD_LO >> 32


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for one slot of the deterministic seed tree."""
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def first_draws(master_seed: int, slot: int, stage: int, trials, subs) -> np.ndarray:
    """``child_rng(master_seed, slot, t, s, stage).random()`` for each pair
    (t, s) of the equal-length integer arrays ``trials`` and ``subs``.

    Every key word must lie in [0, 2**32), where it is one spawn-key word.
    """
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    trials, subs = np.asarray(trials), np.asarray(subs)
    if trials.ndim != 1 or trials.shape != subs.shape:
        raise ValueError("trials and subs must be 1-D arrays of one length")
    pool, const = _seed_pool(operator.index(master_seed))
    for word in (slot, trials, subs, stage):
        pool, const = _absorb(pool, _key_word(word), const)
    # A draw per pair, or one for all pairs when every word was constant.
    return np.resize(_first_double(pool), len(trials))


def _key_word(values) -> np.ndarray:
    """``values`` as uint32 key words, only one when they are all equal."""
    values = np.atleast_1d(values)
    if values.size and (values.dtype.kind not in "iu" or values.min() < 0 or values.max() > _M32):
        raise ValueError("key words must be integers in [0, 2**32)")
    if (values == values[:1]).all():
        values = values[:1]
    return values.astype(np.uint32)


def _absorb(pool: np.ndarray, word: np.ndarray, const: np.ndarray):
    """Hash uint32 words (one per stream, or one for all) from the constant
    ``const`` and mix them into every lane of ``pool``; also returns the
    next constant."""
    consts = const * _ABSORB
    hashed = (word ^ consts[:4]) * consts[1:]
    hashed ^= hashed >> 16
    hashed *= _MIX_MULT_R
    mixed = pool * _MIX_MULT_L - hashed
    mixed ^= mixed >> 16
    return mixed, consts[4]


def _seed_pool(seed: int):
    """SeedSequence's pool after the run entropy of ``seed`` (padded to the
    pool size, as for any sequence with a spawn key) as (4, 1) lanes, and the
    hash constant the spawn-key words continue from, in Python ints."""
    entropy = [seed >> 32 * i & _M32 for i in range(max(-(-seed.bit_length() // 32), 4))]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        const, value = const * _MULT_A & _M32, value ^ const
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(lane, hashmix(word)) for lane in pool]
    return np.array(pool, np.uint32)[:, None], np.array([const], np.uint32)


def _first_double(pool: np.ndarray) -> np.ndarray:
    """First ``random()`` of PCG64 seeded by ``generate_state(4, uint64)`` of
    the (4, n) pool lanes."""
    words = (pool ^ _STATE_XOR) * _STATE_MULT
    words ^= words >> 16
    # Little-endian pairs of words: initstate high, low; initseq high, low.
    pairs = words.reshape(4, 2, pool.shape[1])
    state = pairs[:, 1].astype(np.uint64)
    state <<= 32
    state |= pairs[:, 0]
    del words, pairs  # freed before the 64-bit temporaries
    top = state[3] >> 63  # inc = initseq << 1 | 1 in rows 2 and 3
    state[2:] <<= 1
    state[2] |= top
    state[3] |= 1
    high, low = state[0::2], state[1::2]
    # (high, low) * _FOLD mod 2**128; the product's carry into the high
    # word is that of low * _FOLD_LO, summed from 32-bit halves.
    low0, low1 = low & _M32, low >> 32
    carry = (low0 * _FOLD_LO0 >> 32) + low1 * _FOLD_LO0
    low0 *= _FOLD_LO1
    low0 += carry & _M32
    high *= _FOLD_LO
    high += (carry >> 32) + (low0 >> 32) + low1 * _FOLD_LO1 + low * _FOLD_HI
    low *= _FOLD_LO
    del low0, low1, carry
    s_low = low[0] + low[1]
    s_high = high[0] + high[1] + (s_low < low[0])
    # XSL-RR output, then the 53 high bits as a double in [0, 1).
    s_low ^= s_high
    s_high >>= 58
    x = s_low >> s_high | s_low << (64 - s_high & 63)
    return (x >> 11) * (1.0 / 9007199254740992.0)
