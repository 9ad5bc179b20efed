"""Deterministic seed splitting for trials and sub-systems.

One master seed fans out into independent child streams keyed by
(strategy, trial, sub-system, stage). Because every consumer owns its own
stream, results are identical whether sub-systems execute serially or in
parallel, and each strategy reproduces the same numbers whether it runs
alone or inside a combined batch.

``child_rng`` builds one stream: numpy's ``SeedSequence`` with the key as
its spawn key, feeding ``PCG64``. Most streams are read exactly once, so
``first_draws`` computes the first ``random()`` of many keys at once. Every
step of that path is fixed integer arithmetic (SeedSequence's hash/mix
pool and ``generate_state``, PCG64 seeding and one XSL-RR output), which
``first_draws`` repeats on numpy arrays; the two agree bit for bit, and the
tests compare them on every seed class.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF

# SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64 (numpy/random/src/pcg64/pcg64.h) seeds with state 0 and
# inc = (initseq << 1) | 1, steps, adds initstate and steps again; the first
# draw steps once more. Each step is s -> s*m + inc, so the state the first
# draw outputs from is (inc + initstate)*m^2 + inc*(m + 1) mod 2^128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_MULT = _PCG_MULT * _PCG_MULT % (1 << 128)
_INC_MULT = _PCG_MULT + 1


def child_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for one slot of the deterministic seed tree."""
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def first_draws(master_seed: int, keys) -> np.ndarray:
    """``child_rng(master_seed, *key).random()`` for every row of ``keys``.

    ``keys`` is an (n, k) array of non-negative integers below 2**64, with
    k >= 1 (an empty spawn key would change how SeedSequence pads the seed).
    As in SeedSequence, an element of 2**32 or more is hashed as two words,
    low word first; no element is ever truncated to 32 bits.
    """
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] < 1:
        raise ValueError(f"keys must be an (n, k) array with k >= 1, got shape {keys.shape}")
    if keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be integers, got dtype {keys.dtype}")
    if keys.dtype.kind == "i" and (keys < 0).any():
        raise ValueError("key elements must be non-negative")
    pool, const = _seed_pool(master_seed)
    for column in keys.astype(np.uint64).T:
        pool, const = _absorb(pool, [column & _M32], const)
        wide = column > _M32
        if wide.any():
            # The hash constant advances per word, so from here on it is per row.
            high, high_const = _absorb(pool, [column >> 32], const)
            pool = [np.where(wide, h, p) for h, p in zip(high, pool)]
            const = np.where(wide, high_const, const).astype(np.uint64)
    return _first_double(pool)


def _hashmix(value, const):
    """SeedSequence's hashmix of one word; also returns the next constant.

    Takes Python ints and uint64 arrays alike: every product is masked to
    32 bits, which is the uint32 arithmetic numpy does.
    """
    nxt = const * _MULT_A & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mix(x, y):
    value = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return value ^ value >> 16


def _absorb(pool: list, words, const) -> tuple[list, int]:
    """Mix entropy words past the pool size into every pool word."""
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool after the run entropy of ``seed`` (padded to the
    pool size, as for any sequence with a spawn key), and the hash constant
    the spawn-key words continue from."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool, const = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    return _absorb(pool, entropy[_POOL_SIZE:], const)


def _first_double(pool: list) -> np.ndarray:
    """First ``random()`` of PCG64 seeded by ``generate_state(4, uint64)`` of
    the given pool words (uint64 arrays holding 32-bit values)."""
    # generate_state: eight 32-bit words cycling over the pool, read in
    # little-endian pairs as four uint64 words: initstate is words 0 (high)
    # and 1 (low), initseq words 2 and 3.
    const, state = _INIT_B, []
    for i in range(8):
        nxt = const * _MULT_B & _M32
        value = (pool[i % _POOL_SIZE] ^ const) * nxt & _M32
        state.append(value ^ value >> 16)
        const = nxt
    initstate = [state[2], state[3], state[0], state[1]]  # 32-bit limbs, low first
    initseq = [state[6], state[7], state[4], state[5]]
    inc = [initseq[0] << 1 & _M32 | 1] + [
        (initseq[k] << 1 | initseq[k - 1] >> 31) & _M32 for k in range(1, 4)
    ]
    start = _carry([a + b for a, b in zip(inc, initstate)])
    s = _carry(
        [a + b for a, b in zip(_times(start, _STATE_MULT), _times(inc, _INC_MULT))]
    )
    # XSL-RR output, then the 53 high bits as a double in [0, 1).
    x = (s[3] << 32 | s[2]) ^ (s[1] << 32 | s[0])
    rot = s[3] >> 26
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * (1.0 / 9007199254740992.0)


def _times(limbs: list, const: int) -> list:
    """Column sums of limbs * const mod 2**128, before carrying: each column
    adds at most seven 32-bit halves of 64-bit limb products."""
    cols = [0] * 4
    for j in range(4):
        c = const >> 32 * j & _M32
        for i in range(4 - j):
            product = limbs[i] * c
            cols[i + j] = cols[i + j] + (product & _M32)
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (product >> 32)
    return cols


def _carry(cols: list) -> list:
    """Propagate carries so every limb holds 32 bits, dropping bits past 2**128."""
    limbs, carry = [], 0
    for col in cols:
        col = col + carry
        limbs.append(col & _M32)
        carry = col >> 32
    return limbs
