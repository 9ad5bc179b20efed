"""Shared test utilities."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import probegrover
from probegrover import StateVector

# The directory this package was imported from, so a child interpreter runs
# the same code whether or not PYTHONPATH names it.
_PACKAGE_ROOT = str(Path(probegrover.__file__).resolve().parents[1])


def _child_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m probegrover.cli`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "probegrover.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``python -c code`` in a fresh interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
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


@st.composite
def partitions(draw) -> tuple[int, int, frozenset[int]]:
    """A (db_size, num_subsystems, marked) triple ``partition`` accepts."""
    exponent = draw(st.integers(1, 10))
    db_size = 1 << exponent
    num_subsystems = 1 << draw(st.integers(0, exponent - 1))
    # Any count up to N, so sets larger than M and crowded slices are common.
    count = draw(st.integers(0, db_size))
    marked = frozenset(draw(st.randoms(use_true_random=False)).sample(range(db_size), count))
    return db_size, num_subsystems, marked


class FixedDraw:
    """Stands in for a Generator when a test needs to pin one uniform draw."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def norm_sq(amplitudes: np.ndarray) -> float:
    return float(np.sum(np.abs(amplitudes) ** 2))
