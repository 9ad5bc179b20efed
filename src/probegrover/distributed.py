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

Every strategy runs as one pipeline. ``prepare`` runs the Grover search
once per distinct local marked set on the register's two distinct
amplitudes (``run_grover_pair``), keeps only the cumulative outcome
masses a measurement samples from, and maps each slice to its
preparation with an index array, so no per-slice object is built. Every
array those masses sum is two-valued, so it is never built: its
``np.cumsum`` is kept as arithmetic segments (``SegmentedCdf``) and its
``np.sum`` replayed as numpy's pairwise sum, bit for bit, and a distinct
slice of N items with K marked costs O(K + log N) memory. Trials are
then drawn a chunk at a time and one stage at a time, each stage only
where the merge reads it: every draw is the first value of its own
seed-tree stream, computed in blocks by ``first_draws`` at the live
(trial, slice) pairs only, and each distinct distribution is sampled at
its live pairs of the chunk at once. The merge works on the chunk's
(trials, slices) outcomes as a whole, giving one column per quantity (winners, recovered indices,
correctness, merge cost); ``summarize_trials`` folds those columns into
integer totals, and ``iter_trials`` builds per-trial reports from the
same columns. Only the draws differ between trials: the pre-measurement
state is fixed by the closed form, and so is every cost the merge does
not read off a draw.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, InvariantError, ProtocolError
from .grover import _FLOAT_LEAF, _TwoValueSum, is_power_of_two, run_grover_pair
from .ledger import CostLedger, TrialSummary, fold_summary
# child_rng is the per-stream reference for first_draws; it stays importable
# here for callers that look the seed tree up through this module.
from .seeding import child_rng, first_draws  # noqa: F401
from .statevector import MAX_QUBITS

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

# Seed-tree keys are hashed, and live pairs sampled, _BLOCK_KEYS per numpy
# pass, and a chunk of trials holds about _BLOCK_KEYS slices' worth (at least
# one trial). The size trades speed for transient memory only and cannot change a draw. A 2**12-key
# block's hash temporaries peak at about 1.2 MiB (0.3 MiB at 2**10) and hash
# each key in about half the time.
_BLOCK_KEYS = 1 << 12

# Each slice costs about 95 B of peak memory at any repeat rounds, mostly one
# stage's draw arrays: one probe trial at N=2**17 and 2**16 slices peaks at
# 34.5 MiB (import: 28.4).
MAX_SUBSYSTEMS = 1 << 16


@dataclass(frozen=True)
class SubsystemDescriptor:
    """One equal-size slice of the database: global index = offset + local."""

    id: int
    size: int
    local_marked: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.size < 2 or not is_power_of_two(self.size):
            raise ValueError(f"sub-system size must be a power of two >= 2, got {self.size}")
        if self.id < 0:
            raise ValueError(f"sub-system id must be non-negative, got {self.id}")
        for index in self.local_marked:
            if not 0 <= index < self.size:
                raise ValueError(f"local marked index {index} out of range [0, {self.size})")
        object.__setattr__(self, "local_marked", frozenset(self.local_marked))

    @property
    def offset(self) -> int:
        return self.id * self.size

    @property
    def num_qubits(self) -> int:
        return self.size.bit_length() - 1


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
        object.__setattr__(self, "global_marked", frozenset(self.global_marked))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigurationError unless every parameter is usable."""
        _check_partition(self.db_size, self.num_subsystems, self.global_marked)
        if self.strategy not in ALL_STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {', '.join(ALL_STRATEGIES)} (got {self.strategy!r})"
            )
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1 (got {self.trials})")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative (got {self.seed})")
        if self.strategy == SEMICLASSICAL_REPEAT:
            _check_repeat_rounds(self.repeat_rounds, self.db_size)


@dataclass(frozen=True)
class SubsystemOutcome:
    """What one sub-system reported in one trial, and what its run cost.

    The probe strategy fills ``probe_bit``; the other strategies fill
    ``reported_local_index`` instead.
    """

    id: int
    ledger: CostLedger
    probe_bit: int | None = None
    reported_local_index: int | None = None


@dataclass(frozen=True)
class RunReport:
    """One complete trial: merge decision, recovered indices, cost totals.

    ``correct`` means the trial reported exactly what the marked set
    demands: at least one index with every reported index a true solution,
    or nothing at all when no solution exists.
    """

    strategy: str
    config: ExperimentConfig
    winners: tuple[int, ...]
    recovered: tuple[int, ...]
    correct: bool
    total_ledger: CostLedger
    per_subsystem: tuple[SubsystemOutcome, ...]

    @property
    def winner_subsystem(self) -> int | None:
        return self.winners[0] if len(self.winners) == 1 else None

    @property
    def recovered_global_index(self) -> int | None:
        return self.recovered[0] if len(self.recovered) == 1 else None

    @property
    def missed(self) -> bool:
        """A solution exists but no sub-system reported a result."""
        return bool(self.config.global_marked) and not self.recovered

    @property
    def iteration_depth(self) -> int:
        """Critical-path Grover iterations across parallel sub-systems."""
        return max((o.ledger.grover_iterations for o in self.per_subsystem), default=0)


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


def _check_repeat_rounds(rounds: int, db_size: int) -> None:
    # Birthday-paradox bound: rounds must stay below sqrt(db-size).
    if rounds < 2:
        raise ConfigurationError(f"repeat-rounds must be at least 2 (got {rounds})")
    if rounds * rounds >= db_size:
        raise ConfigurationError(
            f"repeat-rounds must be below sqrt(db-size) (got rounds={rounds}, "
            f"db-size={db_size})"
        )


def partition(
    db_size: int, num_subsystems: int, global_marked: Collection[int] = ()
) -> list[SubsystemDescriptor]:
    """Split the database into equal power-of-two slices, bucketing the
    marked indices into them in local coordinates in one pass."""
    _check_partition(db_size, num_subsystems, global_marked)
    size = db_size // num_subsystems
    local: dict[int, set[int]] = {}
    for g in global_marked:
        local.setdefault(g // size, set()).add(g % size)
    return [
        SubsystemDescriptor(id=i, size=size, local_marked=frozenset(local.get(i, ())))
        for i in range(num_subsystems)
    ]


class SegmentedCdf:
    """A nondecreasing cumulative mass array, kept as arithmetic segments.

    Segment k holds ``count[k]`` consecutive items, ``first[k] + j *
    step[k]`` for j below ``count[k]``; ``last[k]`` is its final value and
    ``size`` the number of items. The segments hold ``np.cumsum`` of a
    two-valued array bit for bit: a segment of more than one distinct value
    lies inside one binade, where each addition adds the same multiple of
    the binade's ulp, so ``first + j * step`` is exact.
    """

    def __init__(self, first: np.ndarray, step: np.ndarray, count: np.ndarray):
        self.first, self.step, self.count = first, step, count
        start = np.cumsum(count) - count
        self.size = int(start[-1] + count[-1])
        self.last = first + (count - 1) * step
        # The sampler's tables, with one sentinel segment past the end that
        # maps every value to the last item, as sample_cdf's clamp does. A
        # constant segment divides by infinity.
        self._start = np.concatenate((start, [self.size - 1])).astype(np.float64)
        self._first = np.concatenate((first, [np.inf]))
        self._divisor = np.concatenate((np.where(step > 0.0, step, np.inf), [1.0]))

    def sample(self, uniforms: float | np.ndarray) -> int | np.ndarray:
        """``sample_cdf`` of the expanded array, without expanding it.

        A right-sided binary search over the segments' last values finds
        the segment holding the first item above ``x = uniforms * total``.
        Inside it, x and ``first`` share a binade, so ``x - first`` and
        ``step`` are integer multiples of its ulp below 2**52, and the
        rounded quotient has the exact integer part: it counts the
        segment's items at or below x.
        """
        total = self.last[-1]
        if total <= 0.0:
            raise InvariantError("outcome distribution has zero total mass")
        x = uniforms * total
        k = np.searchsorted(self.last, x, side="right")
        first = self._first[k]
        below = np.floor((x - first) / self._divisor[k]) + (x >= first)
        index = (self._start[k] + np.maximum(below, 0.0)).astype(np.intp)
        return index if np.ndim(index) else int(index)


@dataclass(frozen=True, eq=False)
class PreparedSlice:
    """What one distinct slice's trials draw from, built once per configuration.

    ``cdf`` holds the cumulative masses the operate stage samples: the
    probe's two branches for the probe strategy, the register's Born
    probabilities otherwise. ``fired_cdf`` is the register distribution
    conditioned on the probe reading 1 (probe strategy only; None when the
    probe cannot fire). ``ledger`` is what one trial costs the slice. The
    masses are summed exactly as a per-trial measurement sums them, so
    every draw lands on the same outcome. Both are ``SegmentedCdf``s of
    O(K + log N) segments for a slice of N items, K of them marked.
    """

    cdf: SegmentedCdf
    fired_cdf: SegmentedCdf | None
    ledger: CostLedger


def _binade_top(total: float) -> float:
    """The power of two that ends the binade of a positive ``total``."""
    return math.ldexp(1.0, math.frexp(total)[1])


def _scalar_run(total: float, value: float, length: int, pieces: list) -> float:
    """Append the segments of ``length`` float64 additions of ``value`` to
    ``total``, in ``np.cumsum``'s order, and return the last sum.

    Three sums with two equal steps inside one binade start an arithmetic
    segment that lasts to the binade's end: the step is the value rounded
    to the binade's ulp, and once the first tie has rounded to even it
    stays the same. Any other sum, at a binade edge or before a tie has
    settled, is a segment of its own.
    """
    firsts, steps, counts = [], [], []
    while length:
        a = total + value
        b = a + value
        step = b - a
        count = 1
        if length >= 3 and b + value - b == step:
            top = _binade_top(a)
            if step == 0.0:
                count = length
            elif b + value < top:
                # The sums a + j * step below top, counted in ulps.
                ulp = math.ulp(a)
                count = min(length, -(-int((top - a) / ulp) // int(step / ulp)))
        firsts.append(a)
        steps.append(step)
        counts.append(count)
        total = a + (count - 1) * step
        length -= count
    pieces.append((firsts, steps, counts))
    return total


def _binade_runs(total: float, lengths: np.ndarray, values: np.ndarray, pieces: list):
    """Append the segments of the leading runs that keep every sum inside
    the binade of a positive ``total``; return how many runs they are and
    the last sum.

    In that binade each addition of a value adds the value rounded to the
    binade's ulp, whatever the sum, unless it lies exactly halfway between
    two multiples of the ulp: then the result rounds to even, and the
    scalar path takes over. The sums are exact integer multiples of the ulp.
    """
    ulp = math.ulp(total)
    with np.errstate(over="ignore", invalid="ignore"):
        units = values / ulp
        steps = np.rint(units)
        sums = total / ulp + np.cumsum(lengths * steps)
        fits = (sums < _binade_top(total) / ulp) & (units - np.floor(units) != 0.5)
    taken = len(fits) if fits.all() else int(np.argmin(fits))
    if taken:
        steps, sums, lengths = steps[:taken], sums[:taken], lengths[:taken]
        pieces.append(((sums - (lengths - 1) * steps) * ulp, steps * ulp, lengths))
        total = float(sums[-1] * ulp)
    return taken, total


def _two_valued_cumsum(
    size: int, indices: np.ndarray, unmarked: float, marked: float
) -> SegmentedCdf:
    """``np.cumsum`` of the ``size``-item array holding ``marked`` at the
    sorted ``indices`` and ``unmarked`` elsewhere, as segments, bit for bit.

    The array is runs of equal items. All runs that stay inside the
    running sum's binade are taken at once; the run that leaves it, or a
    binade where a value ties, goes run by run. The work is O(runs) numpy
    operations per binade the sums pass.
    """
    # Runs of consecutive marked items, as their first and one-past-last
    # items; the runs alternate unmarked, marked, ... from item 0.
    breaks = np.flatnonzero(indices[1:] != indices[:-1] + 1)
    heads = np.concatenate((indices[:1], indices[breaks + 1]))
    tails = np.concatenate((indices[breaks], indices[-1:])) + 1
    bounds = np.concatenate(([0], np.column_stack((heads, tails)).ravel(), [size]))
    lengths = bounds[1:] - bounds[:-1]
    values = np.where(np.arange(len(lengths)) % 2, marked, unmarked)
    keep = lengths > 0
    lengths, values = lengths[keep], values[keep]
    pieces: list = []
    total, r = 0.0, 0
    while r < len(lengths):
        # Skip the pass when the next run plainly leaves the binade.
        if 0.0 < total and total + lengths[r] * values[r] < _binade_top(total):
            taken, total = _binade_runs(total, lengths[r:], values[r:], pieces)
            r += taken
        top = _binade_top(total) if total > 0.0 else 0.0
        while r < len(lengths):
            total = _scalar_run(total, float(values[r]), int(lengths[r]), pieces)
            r += 1
            if total >= top:
                break
    first, step, count = (np.concatenate(column) for column in zip(*pieces))
    return SegmentedCdf(first, step, count.astype(np.int64))


def _rounds(config: ExperimentConfig) -> int:
    return config.repeat_rounds if config.strategy == SEMICLASSICAL_REPEAT else 1


def _distributions(
    strategy: str, num_qubits: int, marked: frozenset[int], rounds: int
) -> tuple[SegmentedCdf, SegmentedCdf | None, CostLedger]:
    """The cumulative masses one slice's trials sample, built from its two
    final Grover amplitudes without an N-item array.

    Each mass array holds the bytes the dense chain gives: the register's
    ``np.cumsum(np.abs(amps) ** 2)``; for the probe, ``np.sum`` of each
    branch of the joint state after the boolean oracle (the register with
    its marked slots swapped out, and only those slots), and the register
    conditioned on the probe reading 1. Every array summed is two-valued,
    so the cumulative sums are replayed as segments and the branch sums
    as numpy's pairwise sum over float leaves (``_TwoValueSum``).
    """
    pair, indices, stats = run_grover_pair(num_qubits, marked)
    iterations = stats.iterations
    unmarked, hit = np.abs(pair) ** 2
    size = 1 << num_qubits
    if strategy != PROBE:
        ledger = CostLedger(
            qubits_measured=rounds * num_qubits,
            quantum_oracle_calls=rounds * iterations,
            grover_iterations=rounds * iterations,
        )
        return _two_valued_cumsum(size, indices, unmarked, hit), None, ledger
    branch = _TwoValueSum(num_qubits, indices, _FLOAT_LEAF)
    unfired = float(branch(unmarked, 0.0))
    fired = float(branch(0.0, hit))
    fired_cdf = None
    if fired > 0.0:
        # collapse_probe's division, applied to the marked value alone.
        (share,) = np.abs(pair[1:] / math.sqrt(fired)) ** 2
        fired_cdf = _two_valued_cumsum(size, indices, 0.0, share)
    # One extra oracle call: the boolean oracle that writes into the probe.
    ledger = CostLedger(
        qubits_measured=1,
        quantum_oracle_calls=iterations + 1,
        grover_iterations=iterations,
    )
    # Two items: their np.cumsum is two one-item segments.
    branches = SegmentedCdf(np.cumsum([unfired, fired]), np.zeros(2), np.ones(2, np.int64))
    return branches, fired_cdf, ledger


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
    marked = np.sort(np.fromiter(config.global_marked, np.int64, len(config.global_marked)))
    ids, starts = np.unique(marked // size, return_index=True)
    # The local sets of the slices in ``ids``; np.split of no items gives one piece.
    local = [frozenset(s.tolist()) for s in np.split(marked % size, starts[1:])][: len(ids)]
    distinct = {s: n for n, s in enumerate(dict.fromkeys(local))}
    which = np.full(num_slices, len(distinct), dtype=np.intp)
    which[ids] = [distinct[s] for s in local]
    if len(ids) < num_slices:
        distinct[frozenset()] = len(distinct)
    qubits = size.bit_length() - 1
    preparations = [
        PreparedSlice(*_distributions(config.strategy, qubits, s, _rounds(config)))
        for s in distinct
    ]
    return preparations, which


def find_winner(probe_bits: Sequence[int]) -> WinnerDecision:
    """Locate set bits with a balanced OR-reduction tree.

    With exactly one bit set among M, the descent takes ceil(log2 M)
    decisions; all-zeros returns no winners without descending; several
    set bits are all returned (result multiplicity).
    """
    bits = [int(b) for b in probe_bits]
    if not bits:
        raise ValueError("probe_bits must be non-empty")
    if any(b not in (0, 1) for b in bits):
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


def _uniforms(
    config: ExperimentConfig,
    stage: int,
    first_trial: int,
    rows: np.ndarray,
    subs: np.ndarray,
) -> np.ndarray:
    """The first draw of stream (slot, first_trial + row, sub, stage) at each
    (row, sub) pair of the index arrays ``rows`` and ``subs``, hashed
    ``_BLOCK_KEYS`` keys at a time."""
    drawn = np.empty(len(rows))
    for start in range(0, len(rows), _BLOCK_KEYS):
        block = slice(start, start + _BLOCK_KEYS)
        keys = np.empty((len(drawn[block]), 4), dtype=np.uint64)
        keys[:, 0] = _SEED_SLOT[config.strategy]
        keys[:, 1] = rows[block] + first_trial
        keys[:, 2] = subs[block]
        keys[:, 3] = stage
        drawn[block] = first_draws(config.seed, keys)
    return drawn


def _groups(kind: np.ndarray) -> list[tuple[int, slice]]:
    """Each preparation in the sorted array ``kind``, with the slices of
    ``kind`` that hold it, at most ``_BLOCK_KEYS`` items each."""
    edges = [0, *(np.flatnonzero(kind[1:] != kind[:-1]) + 1).tolist(), len(kind)]
    return [
        (int(kind[lo]), slice(start, min(start + _BLOCK_KEYS, hi)))
        for lo, hi in zip(edges[:-1], edges[1:])
        for start in range(lo, hi, _BLOCK_KEYS)
    ]


@dataclass(frozen=True, eq=False)
class _Columns:
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
) -> _Columns:
    """Draw and merge a chunk of trials by the strategy.

    Stages are drawn one at a time, each only where the merge reads it:
    stage 0 at every slice, the probe's recovery only at its winners and
    repeat round r only where rounds 0..r-1 agreed. The live (trial, slice)
    pairs are index arrays grouped by preparation (``order`` holds the
    slice ids sorted by preparation) that shrink from stage to stage, and
    each stage samples each preparation once, at its live pairs only.

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

    def sample(stage: int) -> np.ndarray:
        uniforms = _uniforms(config, stage, trials.start, rows, subs)
        drawn = np.empty(len(rows), dtype=np.intp)
        for n, group in _groups(which[subs]):
            drawn[group] = prepared[n].cdf.sample(uniforms[group])
        return drawn

    marked = np.fromiter(config.global_marked, dtype=np.int64)
    size = config.db_size // len(which)
    offsets = np.arange(len(which), dtype=np.int64) * size
    merge_qubits = steps = np.zeros(len(trials), dtype=np.int64)
    rows = np.tile(np.arange(len(trials)), len(which))
    subs = np.repeat(order, len(trials))
    readouts = np.empty((len(trials), len(which)), dtype=np.intp)
    readouts[rows, subs] = sample(0)
    if config.strategy == PROBE:
        winners = readouts == 1
        won = winners[rows, subs]
        rows, subs = rows[won], subs[won]
        bits = readouts[rows, subs]
        uniforms = _uniforms(config, _STAGE_RECOVER, trials.start, rows, subs)
        recovered = np.zeros(readouts.shape, dtype=np.int64)
        for n, g in _groups(which[subs]):
            recovered[rows[g], subs[g]] = recover_global(
                config, prepared[n], subs[g], bits[g], uniforms[g]
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
            agree = sample(stage) == readouts[rows, subs]
            rows, subs = rows[agree], subs[agree]
        winners = np.zeros(readouts.shape, dtype=bool)
        winners[rows, subs] = True
        readouts = np.where(winners, readouts, -1)
        recovered = offsets + readouts
    found = winners.any(axis=1)
    if marked.size:
        correct = found & (np.isin(recovered, marked) | ~winners).all(axis=1)
    else:
        correct = ~found
    return _Columns(readouts, winners, recovered, correct, merge_qubits, steps)


def _fixed_cost(config: ExperimentConfig, prepared: list, which: np.ndarray) -> CostLedger:
    """What every trial costs before the merge reads a draw: each slice's
    search and measurements, plus verify's one classical call per slice.

    Slices that share a preparation share its ledger, so each distinct
    ledger is summed once, weighted by its slice count.
    """
    classical = len(which) if config.strategy == SEMICLASSICAL_VERIFY else 0
    totals = np.array([astuple(p.ledger) for p in prepared]).T @ np.bincount(which)
    return CostLedger(*totals.tolist()) + CostLedger(classical_oracle_calls=classical)


def _merged_chunks(
    config: ExperimentConfig, prepared: list, which: np.ndarray
) -> Iterator[_Columns]:
    """Draw and merge the configured trials in chunks of about
    ``_BLOCK_KEYS`` stage-0 draws (at least one trial), so draw memory
    grows with neither the trial count nor the rounds."""
    order = np.argsort(which, kind="stable")
    chunk = max(1, _BLOCK_KEYS // len(which))
    for first in range(0, config.trials, chunk):
        trials = range(first, min(first + chunk, config.trials))
        yield _merge(config, prepared, which, order, trials)


def summarize_trials(config: ExperimentConfig) -> TrialSummary:
    """Run the configured trials and fold them into a summary.

    Equal to ``summarize(iter_trials(config))``, without building a report
    per trial: the merged columns are summed chunk by chunk into integer
    totals.
    """
    prepared, which = prepare(config)
    successes = misses = qubits = steps = 0
    for columns in _merged_chunks(config, prepared, which):
        successes += int(columns.correct.sum())
        if config.global_marked:
            misses += int((~columns.winners.any(axis=1)).sum())
        qubits += int(columns.merge_qubits.sum())
        steps += int(columns.decision_steps.sum())
    fixed = _fixed_cost(config, prepared, which)
    totals = {name: value * config.trials for name, value in asdict(fixed).items()}
    totals["qubits_measured"] += qubits
    totals["decision_steps"] += steps
    # Sub-systems run in parallel: the critical path is the deepest slice.
    depth = max(p.ledger.grover_iterations for p in prepared)
    return fold_summary(config, config.trials, successes, misses, totals, depth * config.trials)


def iter_trials(config: ExperimentConfig) -> Iterator[RunReport]:
    """Stream the configured trials of the configured strategy.

    Reports are built from the same merged columns ``summarize_trials``
    folds. The slices are prepared when the first trial is drawn and
    released with the iterator, so memory does not grow with the number of
    trials.
    """
    prepared, which = prepare(config)
    fixed = _fixed_cost(config, prepared, which)
    ledgers = [prepared[n].ledger for n in which.tolist()]
    field = "probe_bit" if config.strategy == PROBE else "reported_local_index"
    for columns in _merged_chunks(config, prepared, which):
        rows = zip(
            columns.readouts.tolist(),
            columns.winners,
            columns.recovered,
            columns.correct.tolist(),
            columns.merge_qubits.tolist(),
            columns.decision_steps.tolist(),
        )
        for readouts, winners, recovered, correct, qubits, steps in rows:
            yield RunReport(
                strategy=config.strategy,
                config=config,
                winners=tuple(np.flatnonzero(winners).tolist()),
                recovered=tuple(recovered[winners].tolist()),
                correct=correct,
                total_ledger=fixed + CostLedger(qubits_measured=qubits, decision_steps=steps),
                per_subsystem=tuple(
                    SubsystemOutcome(id=i, ledger=ledger, **{field: None if r < 0 else r})
                    for i, (ledger, r) in enumerate(zip(ledgers, readouts))
                ),
            )


def run_trials(config: ExperimentConfig) -> list[RunReport]:
    """Run the configured number of trials of the configured strategy."""
    return list(iter_trials(config))
