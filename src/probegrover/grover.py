"""Grover search loop and its closed-form success probability.

The closed form sin^2((2r+1) * asin(sqrt(t/n))) predicts the probability
mass on the t solution states after r oracle+diffusion iterations over n
items, and serves as the analytic cross-check for the simulated loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .statevector import StateVector, apply_diffusion, apply_phase_oracle, new_uniform


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


def run_grover(
    num_qubits: int, marked: Iterable[int]
) -> tuple[StateVector, GroverRunStats]:
    """Run the full search loop on the uniform state.

    Applies the phase oracle then diffusion for the scheduled number of
    iterations and reports the final probability mass on the marked states.
    """
    marked = frozenset(int(i) for i in marked)
    state = new_uniform(num_qubits)
    rounds = iteration_count(state.dim, len(marked))
    for _ in range(rounds):
        state = apply_diffusion(apply_phase_oracle(state, marked))
    mass = float(np.sum(np.abs(state.amplitudes[sorted(marked)]) ** 2)) if marked else 0.0
    return state, GroverRunStats(iterations=rounds, final_success_probability=mass)
