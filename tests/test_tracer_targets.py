"""The benchmark tracer's targets still name callables of the package.

``perfbench/tracer.py`` reports a target it cannot resolve as absent
instead of failing the run, so a deletion or a rename in the package would
silently leave that target's per-layer metrics at zero. Here it fails.
"""

from __future__ import annotations

import importlib

import pytest

from helpers import load_perfbench

tracer = load_perfbench("tracer")


@pytest.mark.parametrize("label", sorted(tracer.TARGETS))
def test_tracer_target_resolves_to_a_callable(label):
    module_name, qualname, _ = tracer.TARGETS[label]
    target = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    for name in qualname.split("."):
        target = getattr(target, name)
    assert callable(target)
