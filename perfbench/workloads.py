"""Benchmark workloads: CLI inputs drawn from a workload seed, and the exact
values a correct report must agree with.

The exact values are computed here from the paper's closed form, not by
calling the package under test, so a defect in the package cannot hide
behind its own arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PROBE = "probe"
VERIFY = "semiclassical-verify"
REPEAT = "semiclassical-repeat"
SEQUENTIAL = "sequential"
CLI_STRATEGIES = {
    "probe": (PROBE,),
    "verify": (VERIFY,),
    "repeat": (REPEAT,),
    "sequential": (SEQUENTIAL,),
    "all": (PROBE, VERIFY, REPEAT, SEQUENTIAL),
}


@dataclass(frozen=True)
class Workload:
    """A fixed CLI configuration whose marked items the workload seed places.

    ``slice_loads`` lists how many marked items each chosen slice holds; the
    seed picks which slices and which indices inside them.
    """

    name: str
    why: str
    db_size: int
    subsystems: int
    strategy: str
    trials: int
    repeat_rounds: int
    slice_loads: tuple[int, ...]

    @property
    def strategies(self) -> tuple[str, ...]:
        return CLI_STRATEGIES[self.strategy]

    @property
    def slice_size(self) -> int:
        return self.db_size // self.subsystems

    def marked(self, seed: int) -> tuple[int, ...]:
        rng = random.Random(f"{self.name}:{seed}")
        slices = rng.sample(range(self.subsystems), len(self.slice_loads))
        marked = []
        for slice_id, load in zip(slices, self.slice_loads):
            marked += [slice_id * self.slice_size + i for i in rng.sample(range(self.slice_size), load)]
        return tuple(sorted(marked))

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        return [
            "--db-size", str(self.db_size),
            "--subsystems", str(self.subsystems),
            "--marked", ",".join(map(str, self.marked(seed))),
            "--strategy", self.strategy,
            "--trials", str(self.trials if trials is None else trials),
            "--repeat-rounds", str(self.repeat_rounds),
            "--seed", str(seed),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-batch-all",
            "paper headline case (qubits 12/32/96); kernels about half, seed tree, measurement and ledger the rest",
            db_size=1024, subsystems=4, strategy="all", trials=1000, repeat_rounds=3,
            slice_loads=(1,),
        ),
        Workload(
            "large-slice-probe",
            "2^18-item slices: dense kernels dominate, the same Grover state is rebuilt every trial and reports retain post_state",
            db_size=1 << 20, subsystems=4, strategy="probe", trials=12, repeat_rounds=3,
            slice_loads=(1,),
        ),
        Workload(
            "sequential-large",
            "one run_grover call and one seed stream at N=2^20: bypasses caching, seed-tree and merge changes, moves only with kernels",
            db_size=1 << 20, subsystems=4, strategy="sequential", trials=1, repeat_rounds=3,
            slice_loads=(1,),
        ),
        Workload(
            "wide-merge",
            "64 small slices, 7 marked items with 2-3 in some slices: seed tree, orchestration and ledger dominate, several winners",
            db_size=4096, subsystems=64, strategy="all", trials=150, repeat_rounds=5,
            slice_loads=(3, 2, 1, 1),
        ),
    )
}


def iterations(size: int, solutions: int) -> int:
    """Grover schedule floor(pi/4 * sqrt(size/solutions)); 0 without solutions."""
    return math.floor(math.pi / 4.0 * math.sqrt(size / solutions)) if solutions else 0


def hit_probability(size: int, solutions: int) -> float:
    """Closed form sin^2((2r+1) theta) after the scheduled r iterations."""
    if solutions == 0:
        return 0.0
    theta = math.asin(math.sqrt(solutions / size))
    return math.sin((2 * iterations(size, solutions) + 1) * theta) ** 2


@dataclass(frozen=True)
class Expectation:
    """Exact per-trial ledger and success probability of one strategy.

    ``qubits`` is None for the probe, whose measured qubits depend on the
    number of winners in each trial; every other field is exact per trial.
    """

    success: float
    qubits: float | None
    quantum_oracle_calls: int
    classical_oracle_calls: int
    grover_iterations: int
    iteration_depth: int


def slice_loads(workload: Workload, marked: tuple[int, ...]) -> list[int]:
    """Marked-item count of every slice, in slice order."""
    loads = [0] * workload.subsystems
    for index in marked:
        loads[index // workload.slice_size] += 1
    return loads


def expectations(workload: Workload, marked: tuple[int, ...]) -> dict[str, Expectation]:
    """Exact expectations for every strategy the workload runs."""
    n, m, rounds = workload.slice_size, workload.subsystems, workload.repeat_rounds
    loads = slice_loads(workload, marked)
    iters = [iterations(n, t) for t in loads]
    hits = [hit_probability(n, t) for t in loads]
    bits = n.bit_length() - 1
    some_hit = 1.0 - math.prod(1.0 - p for p in hits)

    # Repeat: a slice reports when all rounds agree; a trial is correct when
    # no slice agrees on a wrong index and at least one agrees on a right one.
    agree_right = [t * (p / t) ** rounds if t else 0.0 for t, p in zip(loads, hits)]
    agree_wrong = [(n - t) * ((1.0 - p) / (n - t)) ** rounds for t, p in zip(loads, hits)]
    repeat_success = math.prod(1.0 - w for w in agree_wrong) - math.prod(
        1.0 - w - a for w, a in zip(agree_wrong, agree_right)
    )

    seq_iters = iterations(workload.db_size, len(marked))
    table = {
        PROBE: Expectation(some_hit, None, m + sum(iters), 0, sum(iters), max(iters)),
        VERIFY: Expectation(some_hit, m * bits, sum(iters), m, sum(iters), max(iters)),
        REPEAT: Expectation(
            repeat_success, m * rounds * bits, rounds * sum(iters), 0,
            rounds * sum(iters), rounds * max(iters),
        ),
        SEQUENTIAL: Expectation(
            hit_probability(workload.db_size, len(marked)),
            workload.db_size.bit_length() - 1, seq_iters, 0, seq_iters, seq_iters,
        ),
    }
    return {s: table[s] for s in workload.strategies}
