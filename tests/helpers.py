"""Shared test utilities."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from math import asin, sin
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import probegrover
from probegrover import CostLedger, ExperimentConfig, StateVector, TrialColumns, Trials, run_trials

# The directory this package was imported from, so a child interpreter runs
# the same code whether or not PYTHONPATH names it.
_PACKAGE_ROOT = str(Path(probegrover.__file__).resolve().parents[1])


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(stem: str):
    """``perfbench/<stem>.py``, loaded by path; that directory is no package."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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


def run_python(code: str, **env: str | None) -> subprocess.CompletedProcess:
    """Run ``python -c code`` in a fresh interpreter that imports this package.

    ``env`` sets variables of the child's environment; None unsets one.
    """
    child_env = {**_child_env(), **env}
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={k: v for k, v in child_env.items() if v is not None},
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
    """The dense cumulative mass array a ``TwoValuedCdf`` stands for (None
    stays None): c(i) = (i + 1 - rank(i)) * unmarked + rank(i) * marked,
    where rank(i) counts the marked indices at or below i."""
    if cdf is None:
        return None
    ranks = np.zeros(cdf.size, dtype=np.int64)
    ranks[cdf.indices] = 1
    ranks = np.cumsum(ranks)
    return (np.arange(1, cdf.size + 1) - ranks) * cdf.unmarked + ranks * cdf.marked


def trial_columns(cfg: ExperimentConfig) -> tuple[Trials, TrialColumns]:
    """``run_trials(cfg)``, its chunks concatenated into one ``TrialColumns``
    with a row per trial."""
    trials = run_trials(cfg)
    return trials, TrialColumns(*map(np.concatenate, zip(*trials.chunks)))


def winners(columns: TrialColumns) -> list[tuple[int, ...]]:
    """Each trial's winning slice ids, ascending."""
    return [tuple(np.flatnonzero(row).tolist()) for row in columns.winners]


def recovered(columns: TrialColumns) -> list[tuple[int, ...]]:
    """Each trial's recovered global indices, in slice order."""
    return [tuple(r[w].tolist()) for r, w in zip(columns.recovered, columns.winners)]


def ledgers(trials: Trials, columns: TrialColumns) -> list[CostLedger]:
    """Each trial's total cost: the fixed cost plus its merge qubits and
    decision steps."""
    return [
        trials.fixed + CostLedger(qubits_measured=q, decision_steps=s)
        for q, s in zip(columns.merge_qubits.tolist(), columns.decision_steps.tolist())
    ]


def assert_columns_equal(columns: TrialColumns, expected: TrialColumns) -> None:
    """Every merged column equal, value for value."""
    for column, want in zip(columns, expected, strict=True):
        np.testing.assert_array_equal(column, want)


# Grover's hit probability in closed form, sin^2((2r+1) theta) with
# sin theta = sqrt(t/n), after the scheduled r = floor(pi/4 * sqrt(n/t))
# iterations, written out here rather than taken from the package:
# one solution in 256 items (r = 12) and in 16 items (r = 3).
HIT_256 = sin(25 * asin(1 / 16)) ** 2  # 0.999947
HIT_16 = sin(7 * asin(1 / 4)) ** 2  # 0.961319


def binomial_band(n: int, p: float, alpha: Fraction = Fraction(1, 10**6)) -> tuple[int, int]:
    """The exact two-sided binomial interval at ``alpha``: a correct engine's
    hit count over ``n`` trials of probability ``p`` falls outside it with
    probability below ``alpha``, at most alpha / 2 in each tail.

    The tails are exact integer sums over ``p``'s binary fraction a / d,
    walked from the end of the range nearer the mass, so a walk takes about
    n * min(p, 1 - p) steps. From ``n`` hits down (p above 1/2), ``high`` is
    the first count whose upper tail P(X >= k) exceeds alpha / 2 and ``low``
    the first whose upper tail exceeds 1 - alpha / 2; from 0 hits up, ``low``
    is the first count whose lower tail P(X <= k) reaches alpha / 2 and
    ``high`` the first whose lower tail reaches 1 - alpha / 2. Both give the
    interval ``scipy.stats.binom.interval`` gives.
    """
    a, d = Fraction(p).as_integer_ratio()
    if a == 0:
        return 0, 0
    whole = d**n  # every tail below is scaled by d ** n
    half = alpha / 2
    if 2 * a > d:
        # The k-hit term comb(n, k) * a**k * (d - a)**(n - k), walked down
        # from k = n: the step to k - 1 multiplies by k * (d - a) and divides
        # exactly by (n - k + 1) * a.
        term, tail, high = a**n, 0, None
        for k in range(n, -1, -1):
            tail += term
            term = term * k * (d - a) // ((n - k + 1) * a)
            if high is None and tail * half.denominator > half.numerator * whole:
                high = k
            if tail * half.denominator > (half.denominator - half.numerator) * whole:
                return k, high
    else:
        # The same term walked up from k = 0: the step to k + 1 multiplies
        # by (n - k) * a and divides exactly by (k + 1) * (d - a).
        term, tail, low = (d - a) ** n, 0, None
        for k in range(n + 1):
            tail += term
            term = term * (n - k) * a // ((k + 1) * (d - a))
            if low is None and tail * half.denominator >= half.numerator * whole:
                low = k
            if tail * half.denominator >= (half.denominator - half.numerator) * whole:
                return low, k
    raise AssertionError("the tails sum to 1")


def norm_sq(amplitudes: np.ndarray) -> float:
    return float(np.sum(np.abs(amplitudes) ** 2))
