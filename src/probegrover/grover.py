"""Grover search loop and its closed-form success probability.

The closed form sin^2((2r+1) * asin(sqrt(t/n))) predicts the probability
mass on the t solution states after r oracle+diffusion iterations over n
items, and serves as the analytic cross-check for the simulated loop.

Starting from the uniform state, every oracle+diffusion iteration keeps
the register two-valued: one amplitude on all marked items and one on the
rest (Boyer, Brassard, Hoyer and Tapp, 1998). ``run_grover_pair``
therefore iterates on the pair ``[unmarked, marked]``, and ``run_grover``
writes the dense state from it once at the end. The pair holds the same
bytes as the dense loop ``apply_diffusion(apply_phase_oracle(state,
marked))``: the oracle and the reflection are the same numpy operations
applied to the pair, and the one step whose rounding depends on the
register size, the mean, is replayed exactly (``_TwoValueSum``): one
``add.reduce`` over the leaves of numpy's pairwise summation tree that
differ, then the same pairwise additions up the tree, mostly as Python
scalars. A Python float or complex ``+`` is the IEEE-754 binary64 addition
numpy's ``add`` performs, component-wise, so the bytes are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .statevector import StateVector, _check_num_qubits, _marked_indices

# Items per leaf of numpy's pairwise sum: it adds blocks of up to 128
# doubles with an 8-way unroll and splits anything longer into halves.
_COMPLEX_LEAF = 64
_FLOAT_LEAF = 128
# Levels of ``_TwoValueSum``'s tree with more marked-holding nodes than
# this are added as one numpy operation each, narrower ones as Python
# scalars: a numpy level costs about 1 us whatever its width, a scalar
# addition about 0.08 us, so the two are equal near 12-16 nodes.
_SCALAR_NODES = 16


@dataclass
class GroverRunStats:
    """Per-run cost and quality; each iteration makes one phase-oracle call."""

    iterations: int = 0
    final_success_probability: float = 0.0


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


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a sorted array, without
    the sort: each run of equal values, and the run each item belongs to,
    counted from 1 (``_TwoValueSum`` keeps position 0 for the clean node)."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return values[starts], np.cumsum(starts)


class _TwoValueSum:
    """``np.add.reduce`` of a two-valued array of 2**num_qubits items, bit for bit.

    numpy's ``add.reduce`` over a power-of-two N sums leaves of ``leaf``
    items (``_COMPLEX_LEAF`` for complex128, ``_FLOAT_LEAF`` for float64)
    and adds sibling sums pairwise up a balanced tree; ``amps.mean()``
    divides that sum by N. Every leaf and subtree without a marked item has
    the same sum at its height, so only the leaves that hold marked items
    and their ancestors are computed. A sum is one ``add.reduce`` over the
    distinct marked patterns among those leaves and the clean leaf, then
    the pairwise additions up the tree: one numpy add per level while a
    level has more than ``_SCALAR_NODES`` marked-holding nodes, and Python
    scalar additions above. The bytes do not depend on which adds a node: a
    Python float or complex ``+`` is the same IEEE-754 binary64 addition,
    component-wise, as numpy's ``add``, applied to the same two sums in the
    same order. An array of at most ``leaf`` items is one leaf, and one
    without marked items is all clean subtrees. ``indices`` are sorted and
    distinct, as ``_marked_indices`` returns them.
    """

    def __init__(self, num_qubits: int, indices: np.ndarray, leaf: int) -> None:
        dim = 1 << num_qubits
        width = min(dim, leaf)
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


def run_grover_pair(
    num_qubits: int, marked: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, GroverRunStats]:
    """Run the full search loop on the uniform state, as two amplitudes.

    Applies the phase oracle then diffusion for the scheduled number of
    iterations and reports the final probability mass on the marked states.
    The loop runs on the two distinct amplitudes ``[unmarked, marked]``
    with the dense loop's own numpy operations: the oracle negates the
    marked value as ``apply_phase_oracle`` does, the reflection is
    ``apply_diffusion``'s ``2.0 * mean - amps``, and ``_TwoValueSum``
    replays numpy's summation order for the mean. Returns the final pair,
    the sorted marked indices and the run's stats: the dense register holds
    the pair's second value at those indices and its first everywhere else,
    bit for bit, without building it. An iteration costs one small
    ``add.reduce`` over the distinct marked leaf patterns and scalar
    additions up the O(log N) tree levels above them.
    """
    _check_num_qubits(num_qubits)
    indices = _marked_indices(marked, num_qubits)
    dim = 1 << num_qubits
    rounds = iteration_count(dim, len(indices))
    vals = np.full(2, 1.0 / math.sqrt(dim), dtype=np.complex128)
    if rounds:
        total = _TwoValueSum(num_qubits, indices, _COMPLEX_LEAF)
        for _ in range(rounds):
            vals[1:] *= -1.0
            vals = 2.0 * (total(*vals) / dim) - vals
    # The same K-item sum as over the dense register's marked entries.
    mass = float(np.sum(np.full(len(indices), (np.abs(vals) ** 2)[1])))
    return vals, indices, GroverRunStats(iterations=rounds, final_success_probability=mass)


def run_grover(
    num_qubits: int, marked: Iterable[int]
) -> tuple[StateVector, GroverRunStats]:
    """Run the full search loop on the uniform state.

    ``run_grover_pair`` written out as the dense register: the same bytes
    as the dense oracle+diffusion loop.
    """
    vals, indices, stats = run_grover_pair(num_qubits, marked)
    amps = np.full(1 << num_qubits, vals[0])
    amps[indices] = vals[1]
    return StateVector(num_qubits, amps), stats
