"""Shared test utilities."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import probegrover
from probegrover import StateVector

# The directory this package was imported from, so a child interpreter runs
# the same code whether or not PYTHONPATH names it.
_PACKAGE_ROOT = str(Path(probegrover.__file__).resolve().parents[1])


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m probegrover.cli`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "probegrover.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    """Haar-ish random normalized state: complex Gaussian, renormalized."""
    dim = 1 << num_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits, amps)


def random_marked(rng: np.random.Generator, num_qubits: int) -> frozenset[int]:
    """Random marked set of size 0..dim/2."""
    dim = 1 << num_qubits
    count = int(rng.integers(0, dim // 2 + 1))
    return frozenset(int(i) for i in rng.choice(dim, size=count, replace=False))


class FixedDraw:
    """Stands in for a Generator when a test needs to pin one uniform draw."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def norm_sq(amplitudes: np.ndarray) -> float:
    return float(np.sum(np.abs(amplitudes) ** 2))
