"""Per-layer tracing of an in-process CLI run, from outside the package.

The tracer wraps the public functions the modules call one another through
and restores them afterwards; the package source is never edited. A
function is patched under every ``probegrover`` module attribute that
refers to it, so it is seen whichever module looks it up, and a method is
patched on its class. A target a refactor has removed is reported as
absent instead of failing the run.

Each wrapped call is a span. Busy time is the span's duration; self time
is busy time minus the time of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "probegrover"


@dataclass
class Span:
    """Accumulated calls and times of one traced function."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)
    seen: set = field(default_factory=set)


def _freeze(value):
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return value


def _observe_grover(span: Span, args, kwargs, result) -> None:
    try:
        span.seen.add(tuple(map(_freeze, args)) + tuple(sorted(kwargs.items())))
    except TypeError:  # unhashable input: count it as distinct
        span.seen.add(object())
    span.counts["iterations"] += getattr(result[1], "iterations", 0)


def _observe_kernel(span: Span, args, kwargs, result) -> None:
    amplitudes = getattr(args[0] if args else None, "amplitudes", None)
    if amplitudes is not None:
        span.counts["amplitudes"] += amplitudes.size
        # Computed traffic: the input read once and the output written once.
        span.counts["bytes"] += 2 * amplitudes.nbytes


def _observe_probe(span: Span, args, kwargs, result) -> None:
    span.counts["fired"] += getattr(result[0], "bit", 0)


def _observe_decision(span: Span, args, kwargs, result) -> None:
    span.counts["decision_steps"] += getattr(result, "decision_steps", 0)


def _observe_trials(span: Span, args, kwargs, result) -> None:
    reports = result if isinstance(result, list) else []
    span.counts["trials"] += len(reports)
    span.counts["winners"] += sum(len(getattr(r, "winners", ())) for r in reports)
    retained = {}
    for report in reports:
        for outcome in getattr(report, "per_subsystem", ()):
            amplitudes = getattr(getattr(outcome, "post_state", None), "amplitudes", None)
            if amplitudes is not None:
                retained[id(amplitudes)] = amplitudes.nbytes
    span.counts["max_retained_bytes"] = max(
        span.counts["max_retained_bytes"], sum(retained.values())
    )


# label -> (module, qualified name, observer)
TARGETS = {
    "seeding.child_rng": ("seeding", "child_rng", None),
    "grover.run_grover": ("grover", "run_grover", _observe_grover),
    "statevector.apply_phase_oracle": ("statevector", "apply_phase_oracle", _observe_kernel),
    "statevector.apply_diffusion": ("statevector", "apply_diffusion", _observe_kernel),
    "statevector.compose_with_probe": ("statevector", "compose_with_probe", None),
    "statevector.apply_boolean_oracle": ("statevector", "apply_boolean_oracle", None),
    "statevector.measure_probe": ("statevector", "measure_probe", _observe_probe),
    "statevector.measure_register": ("statevector", "measure_register", None),
    "distributed.run_trials": ("distributed", "run_trials", _observe_trials),
    "distributed.validate": ("distributed", "ExperimentConfig.validate", None),
    "distributed.find_winner": ("distributed", "find_winner", _observe_decision),
    "distributed.recover_global": ("distributed", "recover_global", None),
    "ledger.add": ("ledger", "CostLedger.__add__", None),
    "ledger.summarize": ("ledger", "summarize", None),
    "ledger.compare_strategies": ("ledger", "compare_strategies", None),
    "cli.run_command": ("cli", "run_command", None),
    "cli.emit_report": ("cli", "emit_report", None),
}


class Tracer:
    """Context manager that wraps ``targets`` while it is active."""

    def __init__(self, targets: dict = TARGETS) -> None:
        self.targets = targets
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._children = [0.0]  # time of wrapped calls inside the innermost open span
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for label, (module_name, qualname, observe) in self.targets.items():
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *path, name = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            span = self.spans[label] = Span()
            self._patch(owner, name, original, self._wrap(span, original, observe))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        if isinstance(owner, type):
            self._undo.append((owner, name, original, name in vars(owner)))
            setattr(owner, name, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original, True))
                    setattr(module, attr, wrapper)

    def _wrap(self, span: Span, original, observe):
        children, clock = self._children, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = children[0]
            children[0] = 0.0
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.busy_s += elapsed
                span.self_s += elapsed - children[0]
                children[0] = outer + elapsed
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Per-layer metrics: name -> (unit, better, source span, value from that span).
# A metric whose span is absent is left out of the result.
LAYER_METRICS = {
    "seeding.child_rng.calls": ("count", "lower", "seeding.child_rng", lambda s: s.calls),
    "seeding.child_rng.busy_s": ("s", "lower", "seeding.child_rng", lambda s: s.busy_s),
    "seeding.child_rng.us_per_call": (
        "us", "lower", "seeding.child_rng", lambda s: 1e6 * _ratio(s.busy_s, s.calls)),
    "grover.run_grover.calls": ("count", "lower", "grover.run_grover", lambda s: s.calls),
    "grover.run_grover.self_s": ("s", "lower", "grover.run_grover", lambda s: s.self_s),
    "grover.iterations": ("count", "lower", "grover.run_grover", lambda s: s.counts["iterations"]),
    "grover.distinct_ratio": (
        "ratio", "higher", "grover.run_grover", lambda s: _ratio(len(s.seen), s.calls)),
    "statevector.apply_phase_oracle.busy_s": (
        "s", "lower", "statevector.apply_phase_oracle", lambda s: s.busy_s),
    "statevector.apply_diffusion.busy_s": (
        "s", "lower", "statevector.apply_diffusion", lambda s: s.busy_s),
    "statevector.compose_with_probe.busy_s": (
        "s", "lower", "statevector.compose_with_probe", lambda s: s.busy_s),
    "statevector.apply_boolean_oracle.busy_s": (
        "s", "lower", "statevector.apply_boolean_oracle", lambda s: s.busy_s),
    "statevector.measure_probe.calls": (
        "count", "lower", "statevector.measure_probe", lambda s: s.calls),
    "statevector.measure_probe.busy_s": (
        "s", "lower", "statevector.measure_probe", lambda s: s.busy_s),
    "statevector.measure_register.calls": (
        "count", "lower", "statevector.measure_register", lambda s: s.calls),
    "statevector.measure_register.busy_s": (
        "s", "lower", "statevector.measure_register", lambda s: s.busy_s),
    "statevector.probe_fire_ratio": (
        "ratio", "higher", "statevector.measure_probe", lambda s: _ratio(s.counts["fired"], s.calls)),
    "distributed.run_trials.busy_s": ("s", "lower", "distributed.run_trials", lambda s: s.busy_s),
    "distributed.run_trials.self_s": ("s", "lower", "distributed.run_trials", lambda s: s.self_s),
    "distributed.validate.calls": ("count", "lower", "distributed.validate", lambda s: s.calls),
    "distributed.find_winner.calls": (
        "count", "lower", "distributed.find_winner", lambda s: s.calls),
    "distributed.find_winner.busy_s": (
        "s", "lower", "distributed.find_winner", lambda s: s.busy_s),
    "distributed.decision_steps": (
        "count", "lower", "distributed.find_winner", lambda s: s.counts["decision_steps"]),
    "distributed.recover_global.calls": (
        "count", "lower", "distributed.recover_global", lambda s: s.calls),
    "distributed.recover_global.busy_s": (
        "s", "lower", "distributed.recover_global", lambda s: s.busy_s),
    "distributed.winners_per_trial": (
        "winners/trial", "higher", "distributed.run_trials",
        lambda s: _ratio(s.counts["winners"], s.counts["trials"])),
    "distributed.retained_state_mb": (
        "MiB", "lower", "distributed.run_trials", lambda s: s.counts["max_retained_bytes"] / 2**20),
    "ledger.add.calls": ("count", "lower", "ledger.add", lambda s: s.calls),
    "ledger.add.busy_s": ("s", "lower", "ledger.add", lambda s: s.busy_s),
    "ledger.summarize.busy_s": ("s", "lower", "ledger.summarize", lambda s: s.busy_s),
    "ledger.compare_strategies.busy_s": (
        "s", "lower", "ledger.compare_strategies", lambda s: s.busy_s),
    "cli.run_command.busy_s": ("s", "lower", "cli.run_command", lambda s: s.busy_s),
    "cli.emit_report.busy_s": ("s", "lower", "cli.emit_report", lambda s: s.busy_s),
}

KERNELS = ("statevector.apply_phase_oracle", "statevector.apply_diffusion")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced run; absent spans are skipped."""
    values = {
        name: value(tracer.spans[source])
        for name, (_, _, source, value) in LAYER_METRICS.items()
        if source in tracer.spans
    }
    kernels = [tracer.spans[k] for k in KERNELS if k in tracer.spans]
    if kernels:
        values["statevector.kernel_amplitudes"] = sum(k.counts["amplitudes"] for k in kernels)
        values["statevector.kernel_bytes_computed"] = sum(k.counts["bytes"] for k in kernels)
        values["statevector.kernel_gbps_computed"] = 1e-9 * _ratio(
            values["statevector.kernel_bytes_computed"], sum(k.busy_s for k in kernels)
        )
    return values


# Metrics computed outside layer_metrics, by unit and direction.
DERIVED_METRICS = {
    "statevector.kernel_amplitudes": ("count", "lower"),
    "statevector.kernel_bytes_computed": ("B", "lower"),
    "statevector.kernel_gbps_computed": ("GB/s", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.trace_overhead_frac": ("frac", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the benchmark reports, with unit and direction."""
    units = {name: spec[:2] for name, spec in LAYER_METRICS.items()}
    units.update(DERIVED_METRICS)
    return units
