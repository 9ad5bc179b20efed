"""Distributed Grover search with probe qubits: simulator and experiment harness.

The public names load on first use (PEP 562), so ``import probegrover``
loads neither numpy nor any submodule, and a CLI run loads only the
modules it uses.
"""

__version__ = "0.2.0"

# Each public name, mapped to the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        [
            "ALL_STRATEGIES", "ExperimentConfig", "PROBE", "SEMICLASSICAL_REPEAT",
            "SEMICLASSICAL_VERIFY", "SEQUENTIAL", "TrialColumns", "Trials",
            "find_winner", "partition", "run_trials",
        ],
        "distributed",
    ),
    **dict.fromkeys(
        ["ConfigurationError", "InvariantError", "ProtocolError", "UsageError"],
        "errors",
    ),
    **dict.fromkeys(
        ["GroverRunStats", "iteration_count", "run_grover", "success_probability"],
        "grover",
    ),
    **dict.fromkeys(
        ["CostLedger", "StrategyRow", "TrialSummary", "compare_strategies", "summarize"],
        "ledger",
    ),
    "child_rng": "seeding",
    **dict.fromkeys(
        [
            "MeasurementRecord", "ProbeOutcome", "StateVector",
            "apply_boolean_oracle", "apply_diffusion", "apply_phase_oracle",
            "compose_with_probe", "dense_reference_step", "measure_probe",
            "measure_register", "new_uniform", "state_from_amplitudes",
        ],
        "statevector",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
