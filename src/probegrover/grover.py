"""Grover search: its iteration schedule, closed-form success probability,
exact outcome masses, and the dense reference loop.

After r oracle+diffusion iterations over n items with t solutions, the
closed form sin^2((2r+1) * asin(sqrt(t/n))) is the probability of
measuring a solution. From the uniform state every iteration keeps the
register two-valued, one amplitude on the marked items and one on the
rest (Boyer, Brassard, Hoyer and Tapp, 1998). The trial engine samples
the exact masses of that pair (``outcome_masses``). ``run_grover`` is the
dense reference: it runs the iterations on the full complex register.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .statevector import StateVector

MAX_QUBITS = 24
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
        raise ValueError(f"num_qubits must be between 1 and {MAX_QUBITS}, got {num_qubits}")


def _marked_indices(marked: Iterable[int], num_qubits: int) -> np.ndarray:
    indices = sorted({int(i) for i in marked})
    if indices and not (0 <= indices[0] and indices[-1] < (1 << num_qubits)):
        raise ValueError(f"marked index out of range for {num_qubits} qubits: {indices}")
    return np.asarray(indices, dtype=np.intp)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _check_search_space(size: int, solutions: int) -> tuple[int, int]:
    """``size`` and ``solutions`` as ints, if they describe a search space."""
    try:
        n = operator.index(size)
    except TypeError:
        n = 0
    if n < 2 or not is_power_of_two(n):
        raise ValueError(f"search-space size must be a power of two >= 2, got {size!r}")
    try:
        t = operator.index(solutions)
    except TypeError:
        t = -1
    if not 0 <= t <= n:
        raise ValueError(f"solutions must be an integer in [0, {n}], got {solutions!r}")
    return n, t


def iteration_count(size: int, solutions: int) -> int:
    """Optimal iteration schedule floor(pi/4 * sqrt(size/solutions)).

    Zero solutions means there is nothing to amplify, so zero iterations.
    """
    size, solutions = _check_search_space(size, solutions)
    if solutions == 0:
        return 0
    return math.floor(math.pi / 4.0 * math.sqrt(size / solutions))


def success_probability(size: int, solutions: int, iterations: int) -> float:
    """Probability of measuring a solution after the given iteration count.

    Returns sin^2((2r+1) * theta) with theta = asin(sqrt(solutions/size));
    zero when no solution state exists.
    """
    size, solutions = _check_search_space(size, solutions)
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
    size, solutions = _check_search_space(size, solutions)
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


def run_grover(
    num_qubits: int, marked: Iterable[int]
) -> tuple[StateVector, GroverRunStats]:
    """Run the scheduled oracle+diffusion iterations on the uniform state
    and report the final probability mass on the marked states.

    Each iteration is ``apply_phase_oracle`` then ``apply_diffusion``, as
    the same numpy operations on one array updated in place. The dense
    layer is imported here, so the trial engine never loads it.
    """
    from .statevector import StateVector

    _check_num_qubits(num_qubits)
    indices = _marked_indices(marked, num_qubits)
    dim = 1 << num_qubits
    rounds = iteration_count(dim, len(indices))
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    for _ in range(rounds):
        amps[indices] *= -1.0
        np.subtract(2.0 * amps.mean(), amps, out=amps)
    mass = float(np.sum(np.abs(amps[indices]) ** 2))
    stats = GroverRunStats(iterations=rounds, final_success_probability=mass)
    return StateVector(num_qubits, amps), stats
