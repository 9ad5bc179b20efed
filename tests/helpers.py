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


def cli_peak_rss_mib(*argv: str) -> tuple[int, float]:
    """Run ``python -m probegrover.cli`` in a fresh interpreter, discarding its
    output; return its exit code and peak resident set size in MiB.

    A child's ``ru_maxrss`` starts from its parent's resident size at the
    fork, so a small launcher interpreter forks the CLI and reads its
    usage through ``os.wait4`` (Linux reports ``ru_maxrss`` in KiB).
    """
    launcher = (
        "import os, subprocess, sys\n"
        f"child = subprocess.Popen([sys.executable, '-m', 'probegrover.cli', *{list(argv)!r}],"
        " stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(child.pid, 0)\n"
        "child.returncode = os.waitstatus_to_exitcode(status)\n"
        "print(child.returncode, usage.ru_maxrss)\n"
    )
    result = run_python(launcher)
    code, kib = result.stdout.split()
    return int(code), int(kib) / 1024


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


def expand(cdf):
    """The dense cumulative mass array a ``SegmentedCdf`` stands for (None
    stays None): ``first[k] + j * step[k]`` for j below ``count[k]``,
    segment after segment."""
    if cdf is None:
        return None
    start = np.cumsum(cdf.count) - cdf.count
    offsets = np.arange(cdf.size) - np.repeat(start, cdf.count)
    return np.repeat(cdf.first, cdf.count) + offsets * np.repeat(cdf.step, cdf.count)


def norm_sq(amplitudes: np.ndarray) -> float:
    return float(np.sum(np.abs(amplitudes) ** 2))
