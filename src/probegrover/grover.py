"""Grover search: its iteration schedule, closed-form success probability,
exact outcome masses, and the dense reference loop.

After r oracle+diffusion iterations over n items with t solutions, the
closed form sin^2((2r+1) * asin(sqrt(t/n))) is the probability of
measuring a solution. From the uniform state every iteration keeps the
register two-valued, one amplitude on the marked items and one on the
rest (Boyer, Brassard, Hoyer and Tapp, 1998). ``outcome_masses`` gives the
trial engine the schedule and the exact masses of that pair; ``run_grover``
is the dense reference, the same schedule run on the full complex register.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .statevector import StateVector

MAX_QUBITS = 24
# Fractional bits of ``outcome_masses``' fixed point: amplified by about
# sqrt(n/t), its truncations stay near 2**-240 at n = 2**24, far below 2**-53.
_FIXED_BITS = 256


class GroverRunStats(NamedTuple):
    """Per-run cost and quality; each iteration makes one phase-oracle call."""

    iterations: int = 0
    final_success_probability: float = 0.0


def _as_int(value, fallback):
    """``value`` as an int if it is an integer of any integer type, else ``fallback``."""
    try:
        return operator.index(value)
    except TypeError:
        return fallback


def _check_num_qubits(num_qubits: int) -> int:
    """``num_qubits`` as an int, if it is an integer in [1, MAX_QUBITS]."""
    k = _as_int(num_qubits, 0)
    if not 1 <= k <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be an integer in 1..{MAX_QUBITS}, got {num_qubits!r}")
    return k


def _marked_indices(marked: Iterable[int], num_qubits: int) -> np.ndarray:
    try:
        indices = sorted({operator.index(i) for i in marked})
    except TypeError:
        raise ValueError(f"marked indices must be integers, got {marked!r}") from None
    if indices and not (0 <= indices[0] and indices[-1] < (1 << num_qubits)):
        raise ValueError(f"marked index out of range for {num_qubits} qubits: {indices}")
    return np.asarray(indices, dtype=np.intp)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def _check_search_space(size: int, solutions: int) -> tuple[int, int]:
    """``size`` and ``solutions`` as ints, if they describe a search space."""
    n = _as_int(size, 0)
    if n < 2 or not is_power_of_two(n):
        raise ValueError(f"search-space size must be a power of two >= 2, got {size!r}")
    t = _as_int(solutions, -1)
    if not 0 <= t <= n:
        raise ValueError(f"solutions must be an integer in [0, {n}], got {solutions!r}")
    return n, t


def iteration_count(size: int, solutions: int) -> int:
    """Optimal iteration schedule floor(pi/4 * sqrt(size/solutions)).

    Zero solutions means there is nothing to amplify, so zero iterations.
    """
    return _schedule(*_check_search_space(size, solutions))


def _schedule(size: int, solutions: int) -> int:
    """``iteration_count`` of a checked search space: the one schedule policy."""
    return math.floor(math.pi / 4.0 * math.sqrt(size / solutions)) if solutions else 0


def success_probability(size: int, solutions: int, iterations: int) -> float:
    """Probability of measuring a solution after the given iteration count.

    Returns sin^2((2r+1) * theta) with theta = asin(sqrt(solutions/size));
    zero when no solution state exists.
    """
    size, solutions = _check_search_space(size, solutions)
    rounds = _as_int(iterations, -1)
    if rounds < 0:
        raise ValueError(f"iterations must be a non-negative integer, got {iterations!r}")
    if solutions == 0:
        return 0.0
    theta = math.asin(math.sqrt(solutions / size))
    return math.sin((2 * rounds + 1) * theta) ** 2


def outcome_masses(size: int, solutions: int) -> tuple[int, float, float]:
    """The scheduled iteration count, and the probability of measuring each
    unmarked and each marked item after it, each correctly rounded to a float.

    Scaled by sqrt(n), the amplitude pair starts at (1, 1), and each
    iteration maps it through S = [[n-2t, -2t], [2(n-t), n-2t]] / n for n
    items and t solutions. Powers of S keep equal diagonal entries, so S^r
    is raised by squaring as (diagonal, upper, lower) in fixed point, where
    S itself is exact. Each mass is one correctly rounded ``int / int``.
    """
    size, solutions = _check_search_space(size, solutions)
    rounds = iterations = _schedule(size, solutions)
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
    return iterations, unmarked * unmarked / scale, marked * marked / scale


def run_grover(
    num_qubits: int, marked: Iterable[int]
) -> tuple[StateVector, GroverRunStats]:
    """Run the scheduled oracle+diffusion iterations on the uniform state
    and report the final probability mass on the marked states.

    The marked set is checked before the register is allocated. Each
    iteration is ``apply_phase_oracle`` then ``apply_diffusion``, as the
    same numpy operations on ``new_uniform``'s array updated in place. The
    dense layer is imported here, so the trial engine never loads it.
    """
    from .statevector import new_uniform

    indices = _marked_indices(marked, _check_num_qubits(num_qubits))
    state = new_uniform(num_qubits)
    amps = state.amplitudes
    rounds = _schedule(state.dim, len(indices))
    for _ in range(rounds):
        amps[indices] *= -1.0
        np.subtract(2.0 * amps.mean(), amps, out=amps)
    mass = float(np.sum(np.abs(amps[indices]) ** 2))
    return state, GroverRunStats(iterations=rounds, final_success_probability=mass)
