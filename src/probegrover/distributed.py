"""Distributed Grover search over equal power-of-two database slices.

The protocol has three stages: the database is partitioned across
independent sub-systems, each sub-system runs its own Grover search in
parallel, and a merge stage turns the per-sub-system readouts into a
final global index. The stages differ only in how a sub-system reports
and how the merge decides, which gives three interchangeable strategies:

- ``probe``: each sub-system answers through a single ancilla qubit that
  the oracle writes into, so the merge reads one bit per sub-system and
  measures the full register only inside the winning sub-system.
- ``semiclassical-verify``: every sub-system measures its whole register
  and the merge checks each candidate with one classical oracle call.
- ``semiclassical-repeat``: every sub-system repeats its search-and-measure
  several times and reports only a candidate that all rounds agree on.

A ``sequential`` baseline (one machine searching the whole database) is
included for cost comparisons. All randomness descends from the
configuration seed through a fixed splitting scheme, so reports are
reproducible and independent of sub-system scheduling.

Every strategy runs as one pipeline. ``prepare`` takes, from one
``outcome_masses`` call per distinct local marked set, the scheduled
iterations and the two exact masses they leave on each unmarked and each
marked item (in integer arithmetic), and maps each slice to its
preparation with an index array, so no per-slice object is built. A
measurement samples the closed-form cumulative masses of those two
values (``TwoValuedCdf``), so a distinct slice of N items with K marked
costs O(K) memory. Trials are then drawn a chunk at a time and one stage
at a time, each stage only where the merge reads it: every draw is the
first value of its own seed-tree stream, computed by ``first_draws`` at
the live (trial, slice) pairs only, ``_BLOCK_KEYS`` pairs per call, and
within each such block every run of pairs that share one preparation is
sampled at once. The merge works on the chunk's (trials, slices)
outcomes as a whole, giving one column per quantity (winners, recovered
indices, correctness, merge cost). ``run_trials`` returns those
``TrialColumns`` as a lazy stream of chunks, next to the cost and depth
every trial shares, and ``ledger.summarize`` folds the stream into
integer totals; there is no per-trial object. Only the draws differ
between trials: the pre-measurement state is fixed by the closed form,
and so is every cost the merge does not read off a draw.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .grover import MAX_QUBITS, _as_int, is_power_of_two, outcome_masses
from .ledger import CostLedger
# child_rng is the per-stream reference for first_draws; it stays importable
# here for callers that look the seed tree up through this module.
from .seeding import child_rng, first_draws  # noqa: F401

PROBE = "probe"
SEMICLASSICAL_VERIFY = "semiclassical-verify"
SEMICLASSICAL_REPEAT = "semiclassical-repeat"
SEQUENTIAL = "sequential"
ALL_STRATEGIES = (PROBE, SEMICLASSICAL_VERIFY, SEMICLASSICAL_REPEAT, SEQUENTIAL)

# Seed-tree namespaces: (strategy slot, trial, sub-system, stage). Round r
# of a slice draws at stage r, so a single-round strategy draws at stage 0;
# the probe's recovery measurement draws at stage 1.
_SEED_SLOT = {name: slot for slot, name in enumerate(ALL_STRATEGIES)}
_STAGE_RECOVER = 1

# Live (trial, slice) pairs are hashed and sampled _BLOCK_KEYS per block, and
# a chunk of trials holds about _BLOCK_KEYS slices' worth (at least one
# trial). The size trades speed for transient memory only and cannot change
# a draw. A 2**12-key block's hash temporaries peak at about 0.6 MiB (0.15
# MiB at 2**10), and it hashes a key in about 0.15 us against 0.25 us at 2**10.
_BLOCK_KEYS = 1 << 12

# Each slice costs about 95 B of peak memory at any repeat rounds, mostly one
# stage's draw arrays: one probe trial at N=2**17 and 2**16 slices peaks at
# 34.5 MiB (import: 28.4).
MAX_SUBSYSTEMS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Search problem, strategy, and reproducibility parameters, checked when built."""

    db_size: int
    num_subsystems: int
    global_marked: frozenset[int]
    strategy: str
    seed: int
    trials: int = 1
    repeat_rounds: int = 3

    def __post_init__(self) -> None:
        for name in ("db_size", "num_subsystems", "seed", "trials", "repeat_rounds"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "global_marked", _marked_set(self.global_marked))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigurationError unless every parameter is usable."""
        _check_partition(self.db_size, self.num_subsystems, self.global_marked)
        if self.strategy not in ALL_STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {', '.join(ALL_STRATEGIES)} (got {self.strategy!r})"
            )
        # At most 2**32 trials, so a trial index is one seed-tree key word.
        if not 1 <= self.trials <= 1 << 32:
            raise ConfigurationError(f"trials must be between 1 and 2**32 (got {self.trials})")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative (got {self.seed})")
        rounds = self.repeat_rounds
        if rounds < 2:
            raise ConfigurationError(f"repeat-rounds must be at least 2 (got {rounds})")
        # Birthday-paradox bound: repeat's rounds must stay below sqrt(db-size).
        if self.strategy == SEMICLASSICAL_REPEAT and rounds * rounds >= self.db_size:
            raise ConfigurationError(
                f"repeat-rounds must be below sqrt(db-size) (got rounds={rounds}, "
                f"db-size={self.db_size})"
            )


def _integer(name: str, value) -> int:
    """``value`` as an int, if it is an integer of any integer type."""
    k = _as_int(value, None)
    if k is None:
        raise ConfigurationError(f"{name} must be an integer (got {value!r})")
    return k


def _marked_set(marked) -> frozenset[int]:
    """``marked`` as a frozenset of ints, if it is an iterable of integers."""
    try:
        items = iter(marked)
    except TypeError:
        raise ConfigurationError(
            f"global_marked must be an iterable of integers (got {marked!r})"
        ) from None
    return frozenset(_integer("marked index", i) for i in items)


@dataclass(frozen=True)
class WinnerDecision:
    """Result of scanning probe bits: set-bit positions and the number of
    binary-tree decisions the scan consumed."""

    winners: tuple[int, ...]
    decision_steps: int


def _check_partition(db_size: int, num_subsystems: int, global_marked: Iterable[int]) -> None:
    if db_size < 2 or not is_power_of_two(db_size):
        raise ConfigurationError(f"db-size must be a power of two (got {db_size})")
    if db_size > (1 << MAX_QUBITS):
        raise ConfigurationError(
            f"db-size must be at most 2**{MAX_QUBITS} (got {db_size})"
        )
    if num_subsystems < 1 or not is_power_of_two(num_subsystems):
        raise ConfigurationError(
            f"subsystems must be a power of two (got {num_subsystems})"
        )
    if num_subsystems > MAX_SUBSYSTEMS:
        raise ConfigurationError(
            f"subsystems must be at most {MAX_SUBSYSTEMS} (got {num_subsystems})"
        )
    if num_subsystems * 2 > db_size:
        raise ConfigurationError(
            "subsystems must divide db-size with at least 2 items per sub-system "
            f"(got db-size={db_size}, subsystems={num_subsystems})"
        )
    for index in global_marked:
        if not 0 <= index < db_size:
            raise ConfigurationError(
                f"marked index {index} out of range for db-size {db_size}"
            )


def _buckets(size: int, global_marked: Iterable[int]) -> tuple[list[int], list[frozenset[int]]]:
    """The ascending ids of the ``size``-item slices that hold a marked
    index, and each one's marked indices in local coordinates."""
    slices: dict[int, list[int]] = {}
    for index in global_marked:
        slices.setdefault(index // size, []).append(index % size)
    ids = sorted(slices)
    return ids, [frozenset(slices[i]) for i in ids]


def partition(
    db_size: int, num_subsystems: int, global_marked: Iterable[int] = ()
) -> dict[int, frozenset[int]]:
    """Split the database into equal power-of-two slices, mapping each slice
    id that holds a marked index to those indices in local coordinates.
    The arguments are checked as ``ExperimentConfig`` checks its own."""
    db_size = _integer("db_size", db_size)
    num_subsystems = _integer("num_subsystems", num_subsystems)
    global_marked = _marked_set(global_marked)
    _check_partition(db_size, num_subsystems, global_marked)
    ids, local = _buckets(db_size // num_subsystems, global_marked)
    return dict(zip(ids, local))


class TwoValuedCdf:
    """Outcome masses of ``size`` items: ``marked`` at each of the sorted
    ``indices``, ``unmarked`` at every other item.

    The cumulative mass at item i is c(i) = (i + 1 - rank(i)) * unmarked +
    rank(i) * marked, where rank(i) counts the indices at or below i, so
    the masses are never expanded.
    """

    def __init__(self, size: int, indices: np.ndarray, unmarked: float, marked: float):
        self.size, self.indices, self.unmarked, self.marked = size, indices, unmarked, marked
        # The sampler's tables: the mass of the first j marked items, the
        # cumulative mass up to marked item j, and the last item of the run
        # that has j marked items before it.
        ranks = np.arange(len(indices) + 1)
        self._heights = ranks * marked
        self._ends = (indices - ranks[:-1]) * unmarked + self._heights[1:]
        self._caps = np.append(indices, size - 1)
        self.total = (size - ranks[-1]) * unmarked + self._heights[-1]

    def sample(self, uniforms: float | np.ndarray) -> int | np.ndarray:
        """``sample_cdf`` of the expanded masses, without expanding them.

        A right-sided binary search counts the j marked items whose
        cumulative mass is at or below x, the scaled uniform; the first item
        past x is the unmarked one a floor division of the rest of x finds,
        or else marked item j.
        """
        x = uniforms * self.total
        j = np.searchsorted(self._ends, x, side="right")
        # Without unmarked mass, the run's marked item is the first past x.
        below = np.floor((x - self._heights[j]) / self.unmarked) if self.unmarked else np.inf
        index = np.minimum(j + below, self._caps[j]).astype(np.intp)
        return index if np.ndim(index) else int(index)


class PreparedSlice(NamedTuple):
    """What one distinct slice's trials draw from, built once per configuration.

    ``cdf`` holds the masses the operate stage samples: the probe's two
    branches for the probe strategy, the register's Born probabilities
    otherwise. ``fired_cdf`` is the register conditioned on the probe
    reading 1 (probe strategy only; None when the probe cannot fire).
    ``ledger`` is what one trial costs the slice.
    """

    cdf: TwoValuedCdf
    fired_cdf: TwoValuedCdf | None
    ledger: CostLedger


def _rounds(config: ExperimentConfig) -> int:
    return config.repeat_rounds if config.strategy == SEMICLASSICAL_REPEAT else 1


def _distributions(
    strategy: str, num_qubits: int, marked: frozenset[int], rounds: int
) -> PreparedSlice:
    """One slice's preparation, from one ``outcome_masses`` call: the
    scheduled iterations its ledger charges and the two masses it samples.

    For the probe the boolean oracle moves the marked items' mass onto the
    probe, so its branches are (N - K) * unmarked and K * marked, and the
    register it leaves when it fires is uniform over the K marked items.
    """
    size = 1 << num_qubits
    iterations, unmarked, hit = outcome_masses(size, len(marked))
    indices = np.array(sorted(marked), dtype=np.intp)
    if strategy != PROBE:
        ledger = CostLedger(
            qubits_measured=rounds * num_qubits,
            quantum_oracle_calls=rounds * iterations,
            grover_iterations=rounds * iterations,
        )
        return PreparedSlice(TwoValuedCdf(size, indices, unmarked, hit), None, ledger)
    fired_cdf = TwoValuedCdf(size, indices, 0.0, 1.0) if marked else None
    # One extra oracle call: the boolean oracle that writes into the probe.
    ledger = CostLedger(
        qubits_measured=1, quantum_oracle_calls=iterations + 1, grover_iterations=iterations
    )
    branches = (size - len(marked)) * unmarked, len(marked) * hit
    return PreparedSlice(TwoValuedCdf(2, np.ones(1, np.intp), *branches), fired_cdf, ledger)


def prepare(config: ExperimentConfig) -> tuple[list[PreparedSlice], np.ndarray]:
    """Search once per distinct slice and keep only what its trials sample from.

    Returns the distinct preparations and an index array giving each
    slice's preparation. A slice's pre-measurement state depends only on
    its size and local marked set, so slices that agree on it share one
    preparation: first those of the slices holding solutions, in order of
    their first slice, then the one every slice without a solution shares,
    built only when such a slice exists. The sequential baseline is a
    single slice holding the whole database. No complex state is built.
    """
    num_slices = 1 if config.strategy == SEQUENTIAL else config.num_subsystems
    size = config.db_size // num_slices
    ids, local = _buckets(size, config.global_marked)
    distinct = {s: n for n, s in enumerate(dict.fromkeys(local))}
    which = np.full(num_slices, len(distinct), dtype=np.intp)
    which[ids] = [distinct[s] for s in local]
    if len(ids) < num_slices:
        distinct[frozenset()] = len(distinct)
    qubits = size.bit_length() - 1
    preparations = [_distributions(config.strategy, qubits, s, _rounds(config)) for s in distinct]
    return preparations, which


def find_winner(probe_bits: Sequence[int]) -> WinnerDecision:
    """Locate set bits with a balanced OR-reduction tree.

    With exactly one bit set among M, the descent takes ceil(log2 M)
    decisions; all-zeros returns no winners without descending; several
    set bits are all returned (result multiplicity).
    """
    bits = list(probe_bits)
    if not bits:
        raise ValueError("probe_bits must be non-empty")
    if not all(isinstance(b, (int, np.integer, np.bool_)) and b in (0, 1) for b in bits):
        raise ValueError(f"probe_bits must contain only 0 or 1, got {probe_bits!r}")

    winners: list[int] = []
    steps = 0

    def descend(lo: int, hi: int) -> None:
        nonlocal steps
        if hi - lo == 1:
            winners.append(lo)
            return
        steps += 1
        mid = (lo + hi) // 2
        if any(bits[lo:mid]):
            descend(lo, mid)
        if any(bits[mid:hi]):
            descend(mid, hi)

    if any(bits):
        descend(0, len(bits))
    return WinnerDecision(winners=tuple(winners), decision_steps=steps)


def count_decision_steps(bits: np.ndarray) -> np.ndarray:
    """``find_winner(row).decision_steps`` for every row of a (trials, M)
    bit matrix, M a power of two.

    The scan descends into every internal node of the OR tree whose range
    holds a set bit, so the count is the number of such nodes: one
    pairwise OR per tree level, log2(M) levels.
    """
    level = np.asarray(bits, dtype=bool)
    steps = np.zeros(len(level), dtype=np.int64)
    while level.shape[1] > 1:
        level = level.reshape(len(level), -1, 2).any(axis=2)
        steps += level.sum(axis=1)
    return steps


def recover_global(
    config: ExperimentConfig,
    prepared: PreparedSlice,
    sub_id: int | np.ndarray,
    probe_bit: int | np.ndarray,
    uniform: float | np.ndarray,
) -> int | np.ndarray:
    """Read the solution index out of winning slice ``sub_id`` of ``config``,
    prepared as ``prepared``.

    Measures the register conditioned on the probe having read 1 (for a
    singleton solution this is exactly the solution basis state) and maps
    the local index back to the global database through the slice offset,
    ``sub_id`` times the configured slice size. Like ``sample_cdf``, takes
    one uniform or an array of them, one per winning (trial, slice) pair of
    slices that share ``prepared``, with matching arrays of slice ids and
    probe bits, and returns an int or an index array.
    """
    if np.any(np.asarray(probe_bit) != 1):
        raise ProtocolError(
            f"recovery requires a probe that read 1; sub-system {sub_id} "
            f"read {probe_bit!r}"
        )
    if prepared.fired_cdf is None:
        raise ProtocolError(
            f"sub-system {sub_id} has no retained probe-conditioned register"
        )
    size = config.db_size // config.num_subsystems
    return sub_id * size + prepared.fired_cdf.sample(uniform)


class TrialColumns(NamedTuple):
    """One chunk of trials after the merge, one row per trial.

    ``readouts`` is what each slice reported: its probe bit, its measured
    local index, or the index all its rounds agreed on (-1 when they did
    not). ``recovered`` holds global indices, meaningful where ``winners``
    is set. ``merge_qubits`` and ``decision_steps`` are the merge cost a
    trial's draws decide; every other cost is the same in every trial.
    """

    readouts: np.ndarray
    winners: np.ndarray
    recovered: np.ndarray
    correct: np.ndarray
    merge_qubits: np.ndarray
    decision_steps: np.ndarray


def _merge(
    config: ExperimentConfig, prepared: list, which: np.ndarray, order: np.ndarray, trials: range
) -> TrialColumns:
    """Draw and merge a chunk of trials by the strategy.

    Stages are drawn one at a time, each only where the merge reads it:
    stage 0 at every slice, the probe's recovery only at its winners and
    repeat round r only where rounds 0..r-1 agreed. The live (trial, slice)
    pairs are index arrays grouped by preparation (``order`` holds the
    slice ids sorted by preparation) that shrink from stage to stage. Each
    stage walks them ``_BLOCK_KEYS`` at a time: one ``first_draws`` call
    hashes a block's keys, and each run of one preparation in the block is
    measured at once.

    - probe: the slices whose probe read 1 win; only their registers are
      measured (log2(slice size) qubits each), after an OR-tree scan of the
      bits. If every probe reads 0 despite a marked item the trial reports
      nothing and counts as a miss; there is no automatic retry.
    - semiclassical-verify: every measured candidate is checked with one
      classical oracle call and kept if it is a solution.
    - repeat and sequential: every slice whose rounds all measured the same
      index reports it, unchecked; several agreeing slices are all reported
      (multiplicity). The sequential baseline is one slice and one round.
    """

    def draw(stage: int, measure=lambda prep, run, uniforms: prep.cdf.sample(uniforms)):
        """``measure(preparation, pairs, uniforms)`` for each run of live
        pairs of one preparation, the uniforms drawn at stage ``stage``."""
        drawn = np.empty(len(rows), dtype=np.int64)
        kinds = which[subs]
        for start in range(0, len(rows), _BLOCK_KEYS):
            block = slice(start, start + _BLOCK_KEYS)
            trial = rows[block] + trials.start
            uniforms = first_draws(config.seed, slot, stage, trial, subs[block])
            kind = kinds[block]
            edges = [0, *(np.flatnonzero(kind[1:] != kind[:-1]) + 1).tolist(), len(kind)]
            for lo, hi in zip(edges[:-1], edges[1:]):
                run = slice(start + lo, start + hi)
                drawn[run] = measure(prepared[kind[lo]], run, uniforms[lo:hi])
        return drawn

    slot = _SEED_SLOT[config.strategy]
    marked = np.fromiter(config.global_marked, dtype=np.int64)
    size = config.db_size // len(which)
    offsets = np.arange(len(which), dtype=np.int64) * size
    merge_qubits = steps = np.zeros(len(trials), dtype=np.int64)
    rows = np.tile(np.arange(len(trials)), len(which))
    subs = np.repeat(order, len(trials))
    readouts = np.empty((len(trials), len(which)), dtype=np.intp)
    readouts[rows, subs] = draw(0)
    if config.strategy == PROBE:
        winners = readouts == 1
        won = winners[rows, subs]
        rows, subs = rows[won], subs[won]
        bits = readouts[rows, subs]
        recovered = np.zeros(readouts.shape, dtype=np.int64)
        recovered[rows, subs] = draw(
            _STAGE_RECOVER, lambda p, run, u: recover_global(config, p, subs[run], bits[run], u)
        )
        merge_qubits = winners.sum(axis=1) * (size.bit_length() - 1)
        steps = count_decision_steps(winners)
    elif config.strategy == SEMICLASSICAL_VERIFY:
        recovered = offsets + readouts
        winners = np.isin(recovered, marked)
    else:
        for stage in range(1, _rounds(config)):
            if not len(rows):
                break
            agree = draw(stage) == readouts[rows, subs]
            rows, subs = rows[agree], subs[agree]
        winners = np.zeros(readouts.shape, dtype=bool)
        winners[rows, subs] = True
        readouts = np.where(winners, readouts, -1)
        recovered = offsets + readouts
    # A trial is correct when no winner reports a non-solution and it has a
    # winner exactly when the configuration has a solution.
    wrong = (winners & ~np.isin(recovered, marked)).any(axis=1)
    correct = ~wrong & (winners.any(axis=1) == bool(marked.size))
    return TrialColumns(readouts, winners, recovered, correct, merge_qubits, steps)


def _fixed_cost(config: ExperimentConfig, prepared: list, which: np.ndarray) -> CostLedger:
    """What every trial costs before the merge reads a draw: each slice's
    search and measurements, plus verify's one classical call per slice.

    Slices that share a preparation share its ledger, so each distinct
    ledger is summed once, weighted by its slice count.
    """
    classical = len(which) if config.strategy == SEMICLASSICAL_VERIFY else 0
    totals = np.array([astuple(p.ledger) for p in prepared]).T @ np.bincount(which)
    return CostLedger(*totals.tolist()) + CostLedger(classical_oracle_calls=classical)


class Trials(NamedTuple):
    """The configured trials of ``config``, read once through ``summarize``.

    ``fixed`` is what every trial costs before the merge reads a draw, and
    ``depth`` the critical-path depth every trial shares: the deepest
    slice's Grover iterations. ``chunks`` merges the trials lazily, one
    ``TrialColumns`` per chunk of about ``_BLOCK_KEYS`` stage-0 draws (at
    least one trial), so draw memory grows with neither trials nor rounds.
    Until ``chunks`` is read to the end a ``Trials`` holds its preparations
    and slice map, and it equals only itself (``chunks`` compares by identity).
    """

    config: ExperimentConfig
    fixed: CostLedger
    depth: int
    chunks: Iterator[TrialColumns]


def run_trials(config: ExperimentConfig) -> Trials:
    """Prepare the slices of ``config`` and stream its trials' merged columns."""
    prepared, which = prepare(config)
    depth = max(p.ledger.grover_iterations for p in prepared)
    order = np.argsort(which, kind="stable")
    chunk = max(1, _BLOCK_KEYS // len(which))
    chunks = (
        _merge(config, prepared, which, order, range(first, min(first + chunk, config.trials)))
        for first in range(0, config.trials, chunk)
    )
    return Trials(config, _fixed_cost(config, prepared, which), depth, chunks)
