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
constants, computed on 64-bit words. A block of n keys is hashed, mixed
and folded in place in its (4, n) pool and one (4, n) array of 64-bit
state words, 48 bytes a key; with numpy's ufunc buffers and the draws, a
2**12-key block peaks at about 0.25 MiB.
"""

from __future__ import annotations

import functools
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
_STATE_XOR, _STATE_MULT = _STATE[:8].reshape(2, 2, 2, 1), _STATE[1:].reshape(2, 2, 2, 1)

# PCG64 (numpy/random/src/pcg64/pcg64.h): the two constants multiply
# initstate and inc; each is held as its high and low 64-bit words and the
# low word's 32-bit halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_FOLD = [_PCG_MULT**2 % (1 << 128), (_PCG_MULT**2 + _PCG_MULT + 1) % (1 << 128)]
_FOLD_WORDS = [
    [np.uint64(w) for w in (c >> 64, c & (1 << 64) - 1, c & _M32, c >> 32 & _M32)] for c in _FOLD
]


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
    next constant. A (4, n) pool is mixed in place; a (4, 1) one, such as
    the read-only seed pool, is left as it is."""
    consts = const * _ABSORB
    hashed = word ^ consts[:4]
    hashed *= consts[1:]
    hashed ^= hashed >> 16
    hashed *= _MIX_MULT_R
    if pool.shape[1] == 1:
        mixed = np.subtract(pool * _MIX_MULT_L, hashed, out=hashed)
    else:
        mixed = pool
        mixed *= _MIX_MULT_L
        mixed -= hashed
    mixed ^= mixed >> 16
    return mixed, consts[4]


@functools.lru_cache(maxsize=8)
def _seed_pool(seed: int):
    """SeedSequence's pool after the run entropy of ``seed`` (padded to the
    pool size, as for any sequence with a spawn key) as (4, 1) lanes, and the
    hash constant the spawn-key words continue from. Both arrays are cached
    per seed, so they are read-only."""
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
    arrays = np.array(pool, np.uint32)[:, None], np.array([const], np.uint32)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _first_double(pool: np.ndarray) -> np.ndarray:
    """First ``random()`` of PCG64 seeded by ``generate_state(4, uint64)``
    of the (4, n) pool lanes, which it overwrites: the words are hashed and
    folded in place in one (4, n) array of 64-bit words (initstate high and
    low, then initseq's) and two scratch rows in the pool's memory."""
    n = pool.shape[1]
    state = np.empty((4, n), "<u8")
    # Lane 2w + c of half h is the low (c = 0) or high 32-bit half of state
    # word 2h + w, so each hashed word is written straight into place. Half 0
    # is hashed in the rows half 1 fills later, and half 1 in the pool itself
    # (never the read-only seed pool, since every key word made a new one),
    # whose memory then holds the two scratch rows.
    halves = state.view("<u4").reshape(2, 2, n, 2).transpose(0, 1, 3, 2)
    lanes = pool.reshape(2, 2, n)
    for h, words in enumerate((state[2:].view(np.uint32).reshape(2, 2, n), lanes)):
        np.bitwise_xor(lanes, _STATE_XOR[h], out=words)
        words *= _STATE_MULT[h]
        np.right_shift(words, 16, out=halves[h])
        np.bitwise_xor(halves[h], words, out=halves[h])
    a, b = pool.reshape(-1).view(np.uint64).reshape(2, n)
    # inc = initseq << 1 | 1
    np.right_shift(state[3], 63, out=a)
    state[2:] <<= 1
    state[2] |= a
    state[3] |= 1
    # Each (high, low) pair times its constant (c_high, c_low) mod 2**128;
    # the carry of low * c_low into the high word is summed from the 32-bit
    # halves of low and of c_low (c0, c1).
    for (high, low), (c_high, c_low, c0, c1) in zip((state[:2], state[2:]), _FOLD_WORDS):
        np.multiply(low, c_high, out=a)
        high *= c_low
        high += a
        np.bitwise_and(low, _M32, out=a)
        a *= c0
        a >>= 32
        np.right_shift(low, 32, out=b)
        b *= c0
        a += b  # the carry out of the low 32 bits
        np.right_shift(low, 32, out=b)
        b *= c1
        high += b
        np.right_shift(a, 32, out=b)
        high += b
        a &= _M32
        np.bitwise_and(low, _M32, out=b)
        b *= c1
        a += b
        a >>= 32
        high += a
        low *= c_low
    # The sum of the two products, carried from the low word.
    s_high, s_low = state[0], state[1]
    s_low += state[3]
    s_high += state[2]
    s_high += s_low < state[3]
    # XSL-RR output, then the 53 high bits as a double in [0, 1).
    s_low ^= s_high
    s_high >>= 58
    np.right_shift(s_low, s_high, out=a)
    np.subtract(64, s_high, out=b)
    b &= 63
    np.left_shift(s_low, b, out=b)
    a |= b
    a >>= 11
    return a * (1.0 / 9007199254740992.0)
