"""Grover search loop, its closed-form success probability, and its exact
outcome masses.

The closed form sin^2((2r+1) * asin(sqrt(t/n))) predicts the probability
mass on the t solution states after r oracle+diffusion iterations over n
items, and serves as the analytic cross-check for the simulated loop.

Starting from the uniform state, every oracle+diffusion iteration keeps
the register two-valued: one amplitude on all marked items and one on the
rest (Boyer, Brassard, Hoyer and Tapp, 1998). The trial engine samples
the exact masses of that pair (``outcome_masses``). ``run_grover``, the
dense reference, iterates on the float pair and writes the dense state
from it once at the end. The pair holds the same
bytes as the dense loop ``apply_diffusion(apply_phase_oracle(state,
marked))``: the oracle and the reflection are the same numpy operations,
and the one step whose rounding depends on the register size, the mean,
is replayed exactly from numpy's pairwise summation tree
(``_TwoValueSum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .statevector import StateVector

MAX_QUBITS = 24
# Complex items per leaf of numpy's pairwise sum: it adds blocks of up to
# 128 doubles with an 8-way unroll and splits anything longer into halves.
_COMPLEX_LEAF = 64
# Levels of ``_TwoValueSum``'s tree with more marked-holding nodes than
# this are added as one numpy operation each, narrower ones as Python
# scalars: a numpy level costs about 1 us whatever its width, a scalar
# addition about 0.08 us, so the two are equal near 12-16 nodes.
_SCALAR_NODES = 16
# Fractional bits of ``outcome_masses``' fixed point: amplified by about
# sqrt(n/t), its truncations stay near 2**-240 at n = 2**24, far below 2**-53.
_FIXED_BITS = 256


@dataclass
class GroverRunStats:
    """Per-run cost and quality; each iteration makes one phase-oracle call."""

    iterations: int = 0
    final_success_probability: float = 0.0


def _check_num_qubits(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"num_qubits must be between 1 and {MAX_QUBITS}, got {num_qubits}"
        )


def _marked_indices(marked: Iterable[int], num_qubits: int) -> np.ndarray:
    indices = sorted({int(i) for i in marked})
    if indices and not (0 <= indices[0] and indices[-1] < (1 << num_qubits)):
        raise ValueError(
            f"marked index out of range for {num_qubits} qubits: {indices}"
        )
    return np.asarray(indices, dtype=np.intp)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _check_search_space(size: int, solutions: int) -> None:
    if size < 2 or not is_power_of_two(size):
        raise ValueError(f"search-space size must be a power of two >= 2, got {size}")
    if not 0 <= solutions <= size:
        raise ValueError(f"solutions must be in [0, {size}], got {solutions}")


def iteration_count(size: int, solutions: int) -> int:
    """Optimal iteration schedule floor(pi/4 * sqrt(size/solutions)).

    Zero solutions means there is nothing to amplify, so zero iterations.
    """
    _check_search_space(size, solutions)
    if solutions == 0:
        return 0
    return math.floor(math.pi / 4.0 * math.sqrt(size / solutions))


def success_probability(size: int, solutions: int, iterations: int) -> float:
    """Probability of measuring a solution after the given iteration count.

    Returns sin^2((2r+1) * theta) with theta = asin(sqrt(solutions/size));
    zero when no solution state exists.
    """
    _check_search_space(size, solutions)
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if solutions == 0:
        return 0.0
    theta = math.asin(math.sqrt(solutions / size))
    return math.sin((2 * iterations + 1) * theta) ** 2


def outcome_masses(size: int, solutions: int) -> tuple[float, float]:
    """The probability of measuring each unmarked and each marked item after
    the scheduled iterations, each correctly rounded to a float.

    Scaled by sqrt(n), the amplitude pair starts at (1, 1), and each
    iteration maps it through S = [[n-2t, -2t], [2(n-t), n-2t]] / n for n
    items and t solutions. Powers of S keep equal diagonal entries, so S^r
    is raised by squaring as (diagonal, upper, lower) in fixed point, where
    S itself is exact. Each mass is one correctly rounded ``int / int``.
    """
    rounds = iteration_count(size, solutions)
    shift = _FIXED_BITS - (size.bit_length() - 1)
    one = 1 << _FIXED_BITS
    diag = (size - 2 * solutions) << shift
    upper, lower = -2 * solutions << shift, 2 * (size - solutions) << shift
    unmarked = marked = one
    while rounds:
        if rounds & 1:
            unmarked, marked = (
                (diag * unmarked + upper * marked) >> _FIXED_BITS,
                (lower * unmarked + diag * marked) >> _FIXED_BITS,
            )
        diag, upper, lower = (
            (diag * diag + upper * lower) >> _FIXED_BITS,
            (2 * diag * upper) >> _FIXED_BITS,
            (2 * diag * lower) >> _FIXED_BITS,
        )
        rounds >>= 1
    scale = size * one * one
    return unmarked * unmarked / scale, marked * marked / scale


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a sorted array, without
    the sort: each run of equal values, and the run each item belongs to,
    counted from 1 (``_TwoValueSum`` keeps position 0 for the clean node)."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return values[starts], np.cumsum(starts)


class _TwoValueSum:
    """``np.add.reduce`` of a two-valued array of 2**num_qubits items, bit for bit.

    numpy's ``add.reduce`` over a power-of-two N sums leaves of
    ``_COMPLEX_LEAF`` complex128 items
    and adds sibling sums pairwise up a balanced tree; ``amps.mean()``
    divides that sum by N. Every leaf and subtree without a marked item has
    the same sum at its height, so only the leaves that hold marked items
    and their ancestors are computed. A sum is one ``add.reduce`` over the
    distinct marked patterns among those leaves and the clean leaf, then
    the pairwise additions up the tree: one numpy add per level while a
    level has more than ``_SCALAR_NODES`` marked-holding nodes, and Python
    scalar additions above. The bytes do not depend on which adds a node: a
    Python complex ``+`` is the same IEEE-754 binary64 addition,
    component-wise, as numpy's ``add``, applied to the same two sums in the
    same order. An array of at most ``_COMPLEX_LEAF`` items is one leaf, and one
    without marked items is all clean subtrees. ``indices`` are sorted and
    distinct, as ``_marked_indices`` returns them.
    """

    def __init__(self, num_qubits: int, indices: np.ndarray) -> None:
        dim = 1 << num_qubits
        width = min(dim, _COMPLEX_LEAF)
        leaves, row = _runs(indices // width)
        # Which items of the clean leaf (row 0) and of each marked-holding
        # leaf are marked. Leaves with the same pattern have the same sum, so
        # only the distinct patterns are reduced, found by sorting the rows on
        # their packed bits; the clean row, all zeros, sorts first.
        mask = np.zeros((len(leaves) + 1, width), dtype=bool)
        mask[row, indices % width] = True
        packed = np.packbits(mask, axis=1)
        order = np.lexsort(packed.T)
        packed = packed[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (packed[1:] != packed[:-1]).any(axis=1)
        node = np.empty_like(order)
        node[order] = np.cumsum(first) - 1
        self.mask = mask[order[first]]
        # Each tree level lists the (left, right) children of its clean node
        # and then of its marked-holding nodes, as positions among the sums
        # of the level below, where the clean node is first too. Wide levels
        # keep them as index arrays; the narrow ones above are flattened into
        # one list of additions, each appending a sum to one growing list,
        # so that the root is the last sum.
        self.vector_levels = []
        self.scalar_adds = []
        ids, node, below, base = leaves, node[1:], len(self.mask), 0
        for _ in range((dim // width).bit_length() - 1):
            parents, up = _runs(ids >> 1)
            children = np.zeros((len(parents) + 1, 2), dtype=np.intp)
            children[up, ids & 1] = node
            if len(parents) > _SCALAR_NODES:
                self.vector_levels.append(tuple(children.T))
            else:
                self.scalar_adds += (children + base).tolist()
                base += below
            ids, node, below = parents, np.arange(1, len(parents) + 1), len(parents) + 1

    def __call__(self, unmarked: np.number, marked: np.number) -> np.number:
        # Each reduce here starts from +0.0, as the whole-array reduce does.
        # That can only turn a -0.0 node sum into +0.0, which the whole-array
        # reduce does to its root anyway.
        sums = np.add.reduce(np.where(self.mask, marked, unmarked), axis=1)
        nodes = sums
        for left, right in self.vector_levels:
            nodes = nodes[left] + nodes[right]
        nodes = nodes.tolist()
        for i, j in self.scalar_adds:
            nodes.append(nodes[i] + nodes[j])
        return sums.dtype.type(nodes[-1])


def run_grover(
    num_qubits: int, marked: Iterable[int]
) -> tuple[StateVector, GroverRunStats]:
    """Run the full search loop on the uniform state.

    Applies the phase oracle then diffusion for the scheduled number of
    iterations and reports the final probability mass on the marked states.
    The loop runs on the two distinct amplitudes ``[unmarked, marked]``
    with the dense loop's own numpy operations: the oracle negates the
    marked value as ``apply_phase_oracle`` does, the reflection is
    ``apply_diffusion``'s ``2.0 * mean - amps``, and ``_TwoValueSum``
    replays numpy's summation order for the mean. The register is written
    from the final pair once, with the same bytes as the dense
    oracle+diffusion loop. An iteration costs one small ``add.reduce`` over
    the distinct marked leaf patterns and scalar additions up the O(log N)
    tree levels above them. The dense layer is imported here, so the trial
    engine never loads it.
    """
    from .statevector import StateVector

    _check_num_qubits(num_qubits)
    indices = _marked_indices(marked, num_qubits)
    dim = 1 << num_qubits
    rounds = iteration_count(dim, len(indices))
    vals = np.full(2, 1.0 / math.sqrt(dim), dtype=np.complex128)
    if rounds:
        total = _TwoValueSum(num_qubits, indices)
        for _ in range(rounds):
            vals[1:] *= -1.0
            vals = 2.0 * (total(*vals) / dim) - vals
    # The same K-item sum as over the dense register's marked entries.
    mass = float(np.sum(np.full(len(indices), (np.abs(vals) ** 2)[1])))
    amps = np.full(dim, vals[0])
    amps[indices] = vals[1]
    stats = GroverRunStats(iterations=rounds, final_success_probability=mass)
    return StateVector(num_qubits, amps), stats
