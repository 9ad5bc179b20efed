"""Whole-trial exact laws, derived without the package's formulas.

A slice of n items with t marked is searched for r = floor(pi/4 * sqrt(n/t))
iterations, the paper's schedule, and its two outcome masses are exact
``Fraction``s from a plain r-step loop of the integer Grover recurrence.
Slices draw independently, so the per-trial law of a count summed over the
slices is the convolution of each slice's own law. The whole histogram of
each count is checked, not only its mean: every cell inside its
``binomial_band`` at alpha 1e-6 divided by the number of possible cells,
and every impossible cell empty. A per-slice rate cannot see two slices
whose draws are correlated (because they share a seed key, say); the
histogram of their sum can. The probe's decision steps are counted on the
OR tree over the slices, one pattern of fired slices at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

from probegrover import PROBE, SEMICLASSICAL_REPEAT, SEMICLASSICAL_VERIFY, ExperimentConfig

from helpers import binomial_band, trial_columns

ALPHA = Fraction(1, 10**6)

# Four 8-item slices; 0 and 1, adjacent, each hold local index 5.
ADJACENT = ExperimentConfig(32, 4, {5, 13}, PROBE, seed=1, trials=10_000)

# Eight 8-item slices; 0 and 1, adjacent, hold local index 5, and 7 holds
# local index 5 far from them.
SPREAD = ExperimentConfig(64, 8, {5, 13, 61}, PROBE, seed=1, trials=10_000)

# Sixteen 4-item slices; 0 and 1 each hold local indices 1 and 2, and the
# other 14 hold no solution.
MOSTLY_FREE = ExperimentConfig(
    64, 16, {1, 2, 5, 6}, SEMICLASSICAL_REPEAT, seed=1, trials=4_000, repeat_rounds=2
)


def masses(n: int, t: int) -> tuple[Fraction, Fraction]:
    """The probability of measuring each unmarked and each marked item of n
    items, t of them marked, after the scheduled Grover iterations."""
    r = math.floor(math.pi / 4 * math.sqrt(n / t)) if t else 0
    # The unmarked and marked amplitudes times sqrt(n) * n**k after k
    # iterations: the oracle negates the marked one, then the diffusion
    # reflects both about their mean, ((n - t) * a - t * b) / n.
    a = b = 1
    for _ in range(r):
        a, b = (n - 2 * t) * a - 2 * t * b, 2 * (n - t) * a + (n - 2 * t) * b
    scale = n ** (2 * r + 1)
    assert (n - t) * a * a + t * b * b == scale
    return Fraction(a * a, scale), Fraction(b * b, scale)


def marked_per_slice(cfg: ExperimentConfig) -> tuple[int, list[int]]:
    """The slice size, and how many marked items each slice holds."""
    n = cfg.db_size // cfg.num_subsystems
    held = Counter(i // n for i in cfg.global_marked)
    return n, [held[s] for s in range(cfg.num_subsystems)]


def count_law(probabilities: list[Fraction]) -> list[Fraction]:
    """The law of the number of independent events that happen, each with
    its probability (Poisson-binomial): cell k is P(exactly k happen)."""

    def add_event(law: list[Fraction], p: Fraction) -> list[Fraction]:
        return [a * (1 - p) + b * p for a, b in zip([*law, 0], [0, *law])]

    return reduce(add_event, probabilities, [Fraction(1)])


def or_tree_nodes(fired: list[int], m: int) -> int:
    """How many internal nodes of the balanced OR tree over m slices have a
    fired slice in their range: at node width w, the distinct s // w."""
    widths = [m >> level for level in range(m.bit_length() - 1)]
    return sum(len({s // w for s in fired}) for w in widths)


def assert_histogram(counts: np.ndarray, law: list[Fraction]) -> None:
    """Each cell of the histogram of ``counts`` inside its binomial band, the
    bands of the possible cells sharing alpha; an impossible cell reads 0."""
    observed = np.bincount(counts, minlength=len(law)).tolist()
    assert len(observed) == len(law), f"counts above {len(law) - 1}: {observed}"
    possible = sum(1 for p in law if p)
    for k, (seen, p) in enumerate(zip(observed, law)):
        low, high = binomial_band(len(counts), p, ALPHA / possible)
        assert low <= seen <= high, f"{seen} trials count {k}, band {low}-{high}: {observed}"


def test_masses_follow_the_closed_form():
    # sin^2((2r+1) theta) per marked item, sin theta = sqrt(t/n), at r = 2, 1, 1.
    assert masses(8, 1) == (Fraction(1, 128), Fraction(121, 128))
    assert masses(4, 2) == (Fraction(1, 4), Fraction(1, 4))
    assert masses(16, 3) == (Fraction(1, 256), Fraction(81, 256))
    assert masses(8, 0) == (Fraction(1, 8), Fraction(1, 8))


@pytest.mark.parametrize("strategy", [PROBE, SEMICLASSICAL_VERIFY])
def test_winners_per_trial_over_adjacent_solution_slices(strategy):
    # A slice wins when its probe fires (probe) or its measured candidate is a
    # solution (verify): a solution-holding slice with probability t times
    # its marked mass, a solution-free one never. At 121/128 each, one
    # winner is expected in about 1,034 trials of 10,000; slices that drew
    # together would never give one.
    cfg = replace(ADJACENT, strategy=strategy)
    n, held = marked_per_slice(cfg)
    law = count_law([t * masses(n, t)[1] for t in held if t])
    _, columns = trial_columns(cfg)
    assert_histogram(columns.winners.sum(axis=1), law)


def test_repeat_wrong_agreements_per_trial_over_free_slices():
    # A slice's R rounds agree on a non-solution with probability (n - t) u^R,
    # u its unmarked mass: n^(1-R) for each of the M - S solution-free
    # slices, so the count is Binomial(M - S, n^(1-R)) plus the S
    # solution-holding slices' own agree-wrong terms.
    cfg = MOSTLY_FREE
    n, held = marked_per_slice(cfg)
    rounds = cfg.repeat_rounds
    law = count_law([(n - t) * masses(n, t)[0] ** rounds for t in held])
    _, columns = trial_columns(cfg)
    solution = np.isin(columns.recovered, sorted(cfg.global_marked))
    assert_histogram((columns.winners & ~solution).sum(axis=1), law)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_probe_decision_steps_per_trial_follow_the_or_tree(seed):
    # The scan takes one decision at each OR-tree node whose range holds a
    # fired slice. Over slices 0, 1 and 7, each firing with p = 121/128:
    # none fires (0 steps), one fires or only 0 and 1 do (3), or 7 fires
    # with 0 or 1 (5). Slices that drew together would fire 0 and 1 as one,
    # giving 3 steps about twice as often.
    cfg = replace(SPREAD, seed=seed)
    n, held = marked_per_slice(cfg)
    slices, hits = zip(*[(s, t * masses(n, t)[1]) for s, t in enumerate(held) if t])
    # The tree has M - 1 internal nodes, so a trial takes 0 to M - 1 steps.
    law = [Fraction(0)] * cfg.num_subsystems
    for pattern in product([False, True], repeat=len(slices)):
        fired = [s for s, fire in zip(slices, pattern) if fire]
        weight = math.prod(p if fire else 1 - p for p, fire in zip(hits, pattern))
        law[or_tree_nodes(fired, cfg.num_subsystems)] += weight
    q = 1 - Fraction(121, 128)
    three, five = q * (1 - q**2) + (1 - q) * q**2, (1 - q) * (1 - q**2)
    assert law == [q**3, 0, 0, three, 0, five, 0, 0]
    _, columns = trial_columns(cfg)
    assert_histogram(columns.decision_steps, law)
