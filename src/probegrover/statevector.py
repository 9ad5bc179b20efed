"""Dense state-vector primitives for small quantum registers.

A register of k qubits is a flat array of 2**k complex amplitudes indexed
by computational basis label. A register composed with a single probe
(ancilla) qubit stores the probe as the least significant bit of the joint
index, so the two conditional halves of the joint state are the even and
odd stride-2 slices of one array.

All operations are pure: they return new values and never mutate their
inputs. Every measurement is an inverse-CDF draw over the cumulative
outcome masses (``sample_cdf``). The two measurement operations take one
uniform from a caller-supplied numpy ``Generator``; the trial engine keeps
the masses as segments and samples whole arrays of uniforms with a
sampler that equals ``sample_cdf`` on the expanded masses, so a fixed seed
fully determines every outcome either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvariantError

MAX_QUBITS = 24
DENSE_REFERENCE_MAX_QUBITS = 6


@dataclass(frozen=True, eq=False)
class StateVector:
    """Quantum register of ``num_qubits`` qubits, amplitudes in basis order."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StateVector)
            and self.num_qubits == other.num_qubits
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True, eq=False)
class ComposedState:
    """A k-qubit register joined with one probe qubit.

    The joint state has 2**(k+1) amplitudes with the probe as the lowest
    bit: joint index = (register_index << 1) | probe_bit.
    """

    num_register_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_register_qubits < 1:
            raise ValueError(
                f"num_register_qubits must be >= 1, got {self.num_register_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << (self.num_register_qubits + 1),):
            raise ValueError(
                f"expected {1 << (self.num_register_qubits + 1)} joint amplitudes, "
                f"got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ComposedState)
            and self.num_register_qubits == other.num_register_qubits
            and np.array_equal(self.amplitudes, other.amplitudes)
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of measuring a register: basis index, its Born probability,
    and how many qubits the measurement consumed."""

    outcome: int
    probability: float
    qubits_measured: int


@dataclass(frozen=True)
class ProbeOutcome:
    """Result of reading the probe qubit alone: one bit, at the cost of a
    single qubit measurement."""

    bit: int
    probability: float
    qubits_measured: int = 1


def _check_num_qubits(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(
            f"num_qubits must be between 1 and {MAX_QUBITS}, got {num_qubits}"
        )


def new_uniform(num_qubits: int) -> StateVector:
    """Uniform superposition over all 2**num_qubits basis states."""
    _check_num_qubits(num_qubits)
    dim = 1 << num_qubits
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
    return StateVector(num_qubits, amps)


def state_from_amplitudes(amplitudes: Iterable[complex]) -> StateVector:
    """Build a StateVector from explicit amplitudes, checking normalization."""
    amps = np.asarray(list(amplitudes), dtype=np.complex128)
    dim = amps.shape[0]
    num_qubits = dim.bit_length() - 1
    if dim < 2 or dim != 1 << num_qubits:
        raise ValueError(f"amplitude count must be a power of two >= 2, got {dim}")
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError(f"amplitudes are not normalized: sum |a|^2 = {norm_sq!r}")
    return StateVector(num_qubits, amps)


def _marked_indices(marked: Iterable[int], num_qubits: int) -> np.ndarray:
    indices = sorted({int(i) for i in marked})
    if indices and not (0 <= indices[0] and indices[-1] < (1 << num_qubits)):
        raise ValueError(
            f"marked index out of range for {num_qubits} qubits: {indices}"
        )
    return np.asarray(indices, dtype=np.intp)


def apply_phase_oracle(state: StateVector, marked: Iterable[int]) -> StateVector:
    """Flip the sign of the amplitude on every marked basis state.

    The empty marked set gives the identity; applying the same oracle twice
    restores the input.
    """
    indices = _marked_indices(marked, state.num_qubits)
    amps = state.amplitudes.copy()
    amps[indices] *= -1.0
    return StateVector(state.num_qubits, amps)


def apply_diffusion(state: StateVector) -> StateVector:
    """Inversion about the average: each amplitude a becomes 2*mean - a.

    Equivalent to reflecting about the uniform superposition, which is the
    operator's fixed point.
    """
    amps = state.amplitudes
    return StateVector(state.num_qubits, 2.0 * amps.mean() - amps)


def compose_with_probe(state: StateVector) -> ComposedState:
    """Attach a probe qubit prepared in |0> to the register.

    Every joint amplitude with probe bit 1 is exactly zero after
    composition; the probe occupies the lowest bit of the joint index.
    """
    joint = np.zeros(2 * state.dim, dtype=np.complex128)
    joint[0::2] = state.amplitudes
    return ComposedState(state.num_qubits, joint)


def apply_boolean_oracle(
    composed: ComposedState, marked: Iterable[int]
) -> ComposedState:
    """XOR the oracle predicate into the probe: |i, q> -> |i, f(i) XOR q>.

    For each marked register index the two probe branches swap; unmarked
    indices are untouched, so register amplitude magnitudes never change.
    """
    indices = _marked_indices(marked, composed.num_register_qubits)
    joint = composed.amplitudes.copy()
    even = 2 * indices
    odd = even + 1
    joint[even], joint[odd] = joint[odd].copy(), joint[even].copy()
    return ComposedState(composed.num_register_qubits, joint)


def sample_cdf(cdf: np.ndarray, uniforms: float | np.ndarray) -> int | np.ndarray:
    """Inverse-CDF draw from cumulative outcome masses (not necessarily
    normalized); zero-probability outcomes are never selected.

    The dense measurements draw through this routine, and the trial
    engine's segment sampler is defined by it: each uniform variate in
    [0, 1), a float or an array of them, is scaled by the total mass and
    located with a right-sided binary search. Returns an int for a float
    and an index array of the same shape for an array.
    """
    total = cdf[-1]
    if total <= 0.0:
        raise InvariantError("outcome distribution has zero total mass")
    index = np.minimum(np.searchsorted(cdf, uniforms * total, side="right"), len(cdf) - 1)
    return index if np.ndim(index) else int(index)


def probe_branch_masses(composed: ComposedState) -> np.ndarray:
    """Born masses of the probe reading 0 and reading 1."""
    joint = composed.amplitudes
    return np.array(
        [
            float(np.sum(np.abs(joint[0::2]) ** 2)),
            float(np.sum(np.abs(joint[1::2]) ** 2)),
        ]
    )


def collapse_probe(
    composed: ComposedState, bit: int, probability: float
) -> StateVector:
    """Register state conditioned on the probe reading ``bit``, whose branch
    mass is ``probability``."""
    register = composed.amplitudes[bit::2] / math.sqrt(probability)
    return StateVector(composed.num_register_qubits, register)


def measure_probe(
    composed: ComposedState, rng: np.random.Generator
) -> tuple[ProbeOutcome, StateVector]:
    """Measure only the probe qubit and collapse the register conditionally.

    Returns the observed bit with its Born probability, plus the register
    state renormalized onto the branch consistent with that bit. Exactly
    one qubit is measured regardless of the register size.
    """
    branch_mass = probe_branch_masses(composed)
    bit = sample_cdf(np.cumsum(branch_mass), rng.random())
    probability = float(branch_mass[bit])
    outcome = ProbeOutcome(bit=bit, probability=probability)
    return outcome, collapse_probe(composed, bit, probability)


def measure_register(
    state: StateVector, rng: np.random.Generator
) -> MeasurementRecord:
    """Measure the full register in the computational basis (Born rule)."""
    probabilities = np.abs(state.amplitudes) ** 2
    index = sample_cdf(np.cumsum(probabilities), rng.random())
    return MeasurementRecord(
        outcome=index,
        probability=float(probabilities[index]),
        qubits_measured=state.num_qubits,
    )


def dense_reference_step(num_qubits: int, marked: Iterable[int]) -> np.ndarray:
    """Explicit matrix of one Grover step, diffusion times phase oracle.

    Brute-force reference for equivalence testing; capped at
    ``DENSE_REFERENCE_MAX_QUBITS`` qubits to keep the matrix small.
    """
    if not 1 <= num_qubits <= DENSE_REFERENCE_MAX_QUBITS:
        raise ValueError(
            f"dense reference supports 1..{DENSE_REFERENCE_MAX_QUBITS} qubits, "
            f"got {num_qubits}"
        )
    indices = _marked_indices(marked, num_qubits)
    dim = 1 << num_qubits
    oracle = np.eye(dim, dtype=np.complex128)
    oracle[indices, indices] = -1.0
    diffusion = np.full((dim, dim), 2.0 / dim, dtype=np.complex128) - np.eye(
        dim, dtype=np.complex128
    )
    return diffusion @ oracle
