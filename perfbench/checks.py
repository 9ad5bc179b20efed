"""Correctness checks applied to every report the benchmark collects.

Each check returns a list of problems; an empty list means the report
passed. A report passes when it parses to the documented envelope, every
ledger identity holds exactly, every empirical success rate lies inside a
two-sided binomial bound around its closed-form value, and, for the pinned
seed, its sha256 equals the digest pinned for the envelope's version.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import PROBE, SEQUENTIAL, VERIFY, Workload, expectations, slice_loads

ENVELOPE_KEYS = {"config", "summaries", "comparison", "seed", "version"}

# A success count fails when either binomial tail beyond it is below
# ALPHA / 2: a correct program fails one strategy check in 10^6 seeds.
ALPHA = 1e-6

_ROW_FIELDS = {
    "mean_qubits_measured": "qubits_measured",
    "mean_quantum_oracle_calls": "quantum_oracle_calls",
    "mean_classical_oracle_calls": "classical_oracle_calls",
    "mean_decision_steps": "decision_steps",
}


def binomial_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return float(k == 0)
    if p >= 1.0:
        return float(k == n)
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def within_binomial_bound(k: int, n: int, p: float, alpha: float = ALPHA) -> bool:
    """True unless k successes in n trials are in a tail of mass < alpha/2."""
    pmf = [binomial_pmf(i, n, p) for i in range(n + 1)]
    return min(sum(pmf[: k + 1]), sum(pmf[k:])) >= alpha / 2


def _close(actual, expected) -> bool:
    return isinstance(actual, (int, float)) and math.isclose(
        actual, expected, rel_tol=1e-9, abs_tol=1e-9
    )


def check_report(workload: Workload, seed: int, trials: int, stdout: bytes) -> list[str]:
    """Problems with one JSON report of ``workload`` run with ``trials``."""
    try:
        envelope = json.loads(stdout)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(envelope, dict) or not ENVELOPE_KEYS <= set(envelope):
        return [f"envelope lacks one of the keys {sorted(ENVELOPE_KEYS)}"]
    try:
        return _check_envelope(workload, seed, trials, envelope)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def _check_envelope(workload: Workload, seed: int, trials: int, envelope: dict) -> list[str]:
    marked = workload.marked(seed)
    config = {
        "db_size": workload.db_size,
        "subsystems": workload.subsystems,
        "marked": list(marked),
        "strategy": workload.strategy,
        "strategies_run": list(workload.strategies),
        "repeat_rounds": workload.repeat_rounds,
        "trials": trials,
        "seed": seed,
    }
    problems = []
    if envelope["config"] != config:
        problems.append(f"config echo {envelope['config']!r} differs from {config!r}")
    if envelope["seed"] != seed:
        problems.append(f"seed {envelope['seed']!r} differs from {seed}")
    summaries, rows = envelope["summaries"], envelope["comparison"]
    if [s.get("strategy") for s in summaries] != list(workload.strategies) or len(rows) != len(
        summaries
    ):
        return problems + ["summaries or comparison rows do not match the strategies run"]

    marked_slices = sum(1 for load in slice_loads(workload, marked) if load)
    for summary, row, (strategy, exp) in zip(
        summaries, rows, expectations(workload, marked).items()
    ):
        problems += [
            f"{strategy}: {p}"
            for p in _check_summary(workload, strategy, exp, summary, row, trials, marked_slices)
        ]
    return problems


def _check_summary(workload, strategy, exp, summary, row, trials, marked_slices) -> list[str]:
    problems = []
    ledger = summary["mean_ledger"]
    successes, misses = summary["successes"], summary["misses"]
    if summary["trials"] != trials:
        return [f"summary counts {summary['trials']} trials, expected {trials}"]
    if not 0 <= successes <= trials or not 0 <= misses <= trials:
        return [f"successes {successes} or misses {misses} outside [0, {trials}]"]

    exact = {
        "quantum_oracle_calls": exp.quantum_oracle_calls,
        "classical_oracle_calls": exp.classical_oracle_calls,
        "grover_iterations": exp.grover_iterations,
    }
    bits = workload.slice_size.bit_length() - 1
    if exp.qubits is not None:
        exact.update(qubits_measured=exp.qubits, decision_steps=0)
    else:
        # Probe: M probe qubits plus one full register per winner.
        winners = (ledger["qubits_measured"] - workload.subsystems) * trials / bits
        hits = trials - misses
        if not _close(winners, round(winners)) or not hits <= round(winners) <= hits * marked_slices:
            problems.append(
                f"qubits {ledger['qubits_measured']} is not M + winners*log2(N/M) "
                f"for {hits} trials with a winner"
            )
        elif marked_slices == 1:
            steps = workload.subsystems.bit_length() - 1
            if round(winners) != hits or not _close(ledger["decision_steps"], hits * steps / trials):
                problems.append("single marked slice: winners or decision steps off the identity")
    for name, value in exact.items():
        if not _close(ledger.get(name), value):
            problems.append(f"mean {name} {ledger.get(name)!r}, expected exactly {value}")
    if not _close(summary["mean_iteration_depth"], exp.iteration_depth):
        problems.append(
            f"iteration depth {summary['mean_iteration_depth']!r}, expected {exp.iteration_depth}"
        )

    if strategy in (PROBE, VERIFY) and successes + misses != trials:
        problems.append("a merge that checks its candidates reported a wrong index")
    if strategy == SEQUENTIAL and misses:
        problems.append("sequential baseline reported no index")
    if not _close(summary["empirical_success_rate"], successes / trials):
        problems.append("empirical success rate is not successes / trials")
    if not within_binomial_bound(successes, trials, exp.success):
        problems.append(
            f"{successes}/{trials} successes outside the binomial bound (alpha={ALPHA}) "
            f"around p={exp.success:.9f}"
        )

    row_matches = (
        row.get("strategy") == strategy
        and _close(row.get("success_rate"), successes / trials)
        and _close(row.get("mean_grover_iterations"), summary["mean_iteration_depth"])
        and all(_close(row.get(column), ledger[field]) for column, field in _ROW_FIELDS.items())
    )
    if not row_matches:
        problems.append("comparison row does not match its summary")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(pins: dict, workload: str, seed: int, stdout: bytes) -> list[str]:
    """Compare a report against the digest pinned for its envelope version.

    Only the pinned seed is checked, and a version with no pins is a new
    versioned outcome set rather than a failure.
    """
    if seed != pins["seed"]:
        return []
    try:
        version = json.loads(stdout)["version"]
    except (ValueError, KeyError, TypeError):
        return ["report has no envelope version"]
    expected = pins["versions"].get(version, {}).get(workload)
    if expected is None or sha256(stdout) == expected:
        return []
    return [
        f"report sha256 {sha256(stdout)} differs from the digest pinned for "
        f"version {version}: {expected}"
    ]
