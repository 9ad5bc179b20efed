"""The benchmark tracer's targets still name callables of the package.

``perfbench/tracer.py`` reports a target it cannot resolve as absent
instead of failing the run, so a deletion or a rename in the package would
silently leave that target's per-layer metrics at zero. Here it fails.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _tracer():
    """``perfbench/tracer.py``, loaded by path; that directory is no package."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("label", sorted(tracer.TARGETS))
def test_tracer_target_resolves_to_a_callable(label):
    module_name, qualname, _ = tracer.TARGETS[label]
    target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    for name in qualname.split("."):
        target = getattr(target, name)
    assert callable(target)
