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
once per distinct (slice size, local marked set) and keeps only the
cumulative outcome masses a measurement samples from; each trial then
samples those with one seed-tree stream per draw (the streams' first values
computed in blocks by ``first_draws``), and a per-strategy merge
turns the draws into a report. Only the draws differ between trials: the
pre-measurement state is fixed by the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .grover import is_power_of_two, run_grover
from .ledger import CostLedger
from .seeding import child_rng, first_draws
from .statevector import (
    MAX_QUBITS,
    apply_boolean_oracle,
    born_cdf,
    collapse_probe,
    compose_with_probe,
    probe_branch_masses,
    sample_cdf,
)

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

# Trials are drawn in chunks of about _CHUNK_KEYS seed-tree keys (at least
# one trial), hashed _BLOCK_KEYS keys per numpy pass. Both trade speed for
# transient memory only; neither can change a draw.
_CHUNK_KEYS = 1 << 10
_BLOCK_KEYS = 1 << 10

# Each slice costs about 760 B of peak memory on top of the interpreter
# (one probe trial at N=2M); 2**16 slices stay below about 85 MiB.
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


@dataclass(frozen=True, eq=False)
class PreparedSlice:
    """What one slice's trials draw from, built once per configuration.

    ``cdf`` holds the cumulative masses the operate stage samples: the
    probe's two branches for the probe strategy, the register's Born
    probabilities otherwise. ``fired_cdf`` is the register distribution
    conditioned on the probe reading 1 (probe strategy only; None when the
    probe cannot fire). ``ledger`` is what one trial costs the slice. The
    masses are summed exactly as a per-trial measurement sums them, so
    every draw lands on the same outcome.
    """

    sub: SubsystemDescriptor
    cdf: np.ndarray
    fired_cdf: np.ndarray | None
    ledger: CostLedger


def _rounds(config: ExperimentConfig) -> int:
    return config.repeat_rounds if config.strategy == SEMICLASSICAL_REPEAT else 1


def _distributions(
    strategy: str, num_qubits: int, marked: frozenset[int], rounds: int
) -> tuple[np.ndarray, np.ndarray | None, CostLedger]:
    state, stats = run_grover(num_qubits, marked)
    iterations = stats.iterations
    if strategy != PROBE:
        ledger = CostLedger(
            qubits_measured=rounds * num_qubits,
            quantum_oracle_calls=rounds * iterations,
            grover_iterations=rounds * iterations,
        )
        return born_cdf(state), None, ledger
    composed = apply_boolean_oracle(compose_with_probe(state), marked)
    masses = probe_branch_masses(composed)
    fired_cdf = None
    if masses[1] > 0.0:
        fired_cdf = born_cdf(collapse_probe(composed, 1, float(masses[1])))
    # One extra oracle call: the boolean oracle that writes into the probe.
    ledger = CostLedger(
        qubits_measured=1,
        quantum_oracle_calls=iterations + 1,
        grover_iterations=iterations,
    )
    return np.cumsum(masses), fired_cdf, ledger


def prepare(config: ExperimentConfig) -> tuple[PreparedSlice, ...]:
    """Search every slice once and keep only what its trials sample from.

    A slice's pre-measurement state depends only on its size and local
    marked set, so slices that agree on both (every slice without a
    solution, for one) share one preparation. The sequential baseline is a
    single slice holding the whole database. No complex state outlives
    this call.
    """
    num_subsystems = 1 if config.strategy == SEQUENTIAL else config.num_subsystems
    shared: dict[frozenset[int], tuple] = {}
    slices = []
    for sub in partition(config.db_size, num_subsystems, config.global_marked):
        if sub.local_marked not in shared:
            shared[sub.local_marked] = _distributions(
                config.strategy, sub.num_qubits, sub.local_marked, _rounds(config)
            )
        slices.append(PreparedSlice(sub, *shared[sub.local_marked]))
    return tuple(slices)


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


def recover_global(
    prepared: PreparedSlice, probe_bit: int, rng: np.random.Generator
) -> int:
    """Read the solution index out of a winning slice.

    Measures the register conditioned on the probe having read 1 (for a
    singleton solution this is exactly the solution basis state) and maps
    the local index back to the global database through the slice offset.
    """
    sub = prepared.sub
    if probe_bit != 1:
        raise ProtocolError(
            f"recovery requires a probe that read 1; sub-system {sub.id} "
            f"read {probe_bit!r}"
        )
    if prepared.fired_cdf is None:
        raise ProtocolError(
            f"sub-system {sub.id} has no retained probe-conditioned register"
        )
    return sub.offset + sample_cdf(prepared.fired_cdf, rng.random())


# What a merge decides in one trial: winning sub-systems, recovered global
# indices, per-sub-system outcomes, and the merge stage's own cost.
_Merged = tuple[Sequence[int], Sequence[int], list[SubsystemOutcome], CostLedger]


def _report(
    config: ExperimentConfig,
    winners: Sequence[int],
    recovered: Sequence[int],
    outcomes: Sequence[SubsystemOutcome],
    total: CostLedger,
) -> RunReport:
    recovered = tuple(recovered)
    marked = config.global_marked
    if marked:
        correct = bool(recovered) and all(g in marked for g in recovered)
    else:
        correct = not recovered
    return RunReport(
        strategy=config.strategy,
        config=config,
        winners=tuple(winners),
        recovered=recovered,
        correct=correct,
        total_ledger=total,
        per_subsystem=tuple(outcomes),
    )


def _merge_probe(
    config: ExperimentConfig,
    slices: Sequence[PreparedSlice],
    draws: list[list[int]],
    trial: int,
) -> _Merged:
    """Scan the probe bits, then measure the register of every winner only.

    Measures one qubit per sub-system plus each winning register:
    M + log2(slice size) qubits on the success path. If every probe reads 0
    despite a marked item the trial reports nothing and counts as a miss;
    there is no automatic retry.
    """
    bits = [rounds[0] for rounds in draws]
    decision = find_winner(bits)
    recovered = [
        recover_global(
            slices[w],
            bits[w],
            child_rng(config.seed, _SEED_SLOT[PROBE], trial, w, _STAGE_RECOVER),
        )
        for w in decision.winners
    ]
    outcomes = [
        SubsystemOutcome(id=s.sub.id, ledger=s.ledger, probe_bit=bit)
        for s, bit in zip(slices, bits)
    ]
    merge = CostLedger(
        qubits_measured=len(decision.winners) * slices[0].sub.num_qubits,
        decision_steps=decision.decision_steps,
    )
    return decision.winners, recovered, outcomes, merge


def _merge_verify(
    config: ExperimentConfig,
    slices: Sequence[PreparedSlice],
    draws: list[list[int]],
    trial: int,
) -> _Merged:
    """Check every measured candidate with one classical oracle call and
    keep those that are solutions."""
    winners, recovered, outcomes = [], [], []
    for s, (local,) in zip(slices, draws):
        outcomes.append(
            SubsystemOutcome(id=s.sub.id, ledger=s.ledger, reported_local_index=local)
        )
        if s.sub.offset + local in config.global_marked:
            winners.append(s.sub.id)
            recovered.append(s.sub.offset + local)
    return winners, recovered, outcomes, CostLedger(classical_oracle_calls=len(slices))


def _merge_agreed(
    config: ExperimentConfig,
    slices: Sequence[PreparedSlice],
    draws: list[list[int]],
    trial: int,
) -> _Merged:
    """Report every slice whose rounds all measured the same index.

    With several rounds this is the repeat strategy; agreeing candidates
    from several sub-systems are all reported (multiplicity). With one
    round on one slice it is the sequential baseline, which reports its
    single measurement unchecked.
    """
    winners, recovered, outcomes = [], [], []
    for s, rounds in zip(slices, draws):
        agreed = rounds[0] if all(r == rounds[0] for r in rounds) else None
        outcomes.append(
            SubsystemOutcome(id=s.sub.id, ledger=s.ledger, reported_local_index=agreed)
        )
        if agreed is not None:
            winners.append(s.sub.id)
            recovered.append(s.sub.offset + agreed)
    return winners, recovered, outcomes, CostLedger()


_MERGES = {
    PROBE: _merge_probe,
    SEMICLASSICAL_VERIFY: _merge_verify,
    SEMICLASSICAL_REPEAT: _merge_agreed,
    SEQUENTIAL: _merge_agreed,
}


def _uniforms(
    seed: int, slot: int, first_trial: int, trials: int, num_slices: int, rounds: int
) -> np.ndarray:
    """The first draw of every stream (slot, trial, sub, stage) of ``trials``
    trials from ``first_trial``, shaped (trials, slices, rounds).

    Keys are derived from their flat index ``_BLOCK_KEYS`` at a time, so no
    key matrix larger than one block is ever built.
    """
    per_trial = num_slices * rounds
    total = trials * per_trial
    uniforms = np.empty(total)
    for start in range(0, total, _BLOCK_KEYS):
        flat = np.arange(start, min(start + _BLOCK_KEYS, total), dtype=np.uint64)
        keys = np.empty((len(flat), 4), dtype=np.uint64)
        keys[:, 0] = slot
        keys[:, 1] = first_trial + flat // per_trial
        keys[:, 2] = flat // rounds % num_slices
        keys[:, 3] = flat % rounds
        uniforms[start : start + len(flat)] = first_draws(seed, keys)
    return uniforms.reshape(trials, num_slices, rounds)


def _draw_chunk(
    config: ExperimentConfig, groups: Iterable, num_slices: int, first_trial: int, trials: int
) -> list:
    """Outcome indices [trial][sub][stage] of ``trials`` trials from
    ``first_trial``: each group of slices sharing one prepared distribution
    is sampled for the whole chunk at once."""
    uniforms = _uniforms(
        config.seed, _SEED_SLOT[config.strategy], first_trial, trials, num_slices, _rounds(config)
    )
    drawn = np.empty(uniforms.shape, dtype=np.intp)
    for cdf, ids in groups:
        drawn[:, ids] = sample_cdf(cdf, uniforms[:, ids])
    return drawn.tolist()


def iter_trials(config: ExperimentConfig) -> Iterator[RunReport]:
    """Stream the configured trials of the configured strategy.

    Trials are drawn in chunks of about ``_CHUNK_KEYS`` draws, each the
    first ``random()`` of its own seed-tree stream as ``first_draws``
    computes it. The slices are prepared when the first trial is drawn and
    released with the iterator, so memory does not grow with the number of
    trials.
    """
    slices = prepare(config)
    base = sum((s.ledger for s in slices), CostLedger())
    merge = _MERGES[config.strategy]
    groups: dict[int, tuple[np.ndarray, list[int]]] = {}
    for s in slices:
        groups.setdefault(id(s.cdf), (s.cdf, []))[1].append(s.sub.id)
    chunk = max(1, _CHUNK_KEYS // (len(slices) * _rounds(config)))
    for first in range(0, config.trials, chunk):
        trials = min(chunk, config.trials - first)
        drawn = _draw_chunk(config, groups.values(), len(slices), first, trials)
        for trial, draws in enumerate(drawn, start=first):
            winners, recovered, outcomes, cost = merge(config, slices, draws, trial)
            yield _report(config, winners, recovered, outcomes, base + cost)


def run_trials(config: ExperimentConfig) -> list[RunReport]:
    """Run the configured number of trials of the configured strategy."""
    return list(iter_trials(config))
