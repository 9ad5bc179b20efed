"""``BENCHMARK.json`` names only workloads and metrics the bench harness has.

The harness runs the workloads its own ``perfbench/workloads.py`` defines
and reports the per-layer metrics ``perfbench/tracer.py`` computes; the
declaration is read separately, so the two can drift apart unnoticed. Here
a drift fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import load_perfbench

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
workloads = load_perfbench("workloads")
tracer = load_perfbench("tracer")


@pytest.mark.parametrize("declared", SPEC["workloads"], ids=lambda w: w["name"])
def test_declared_workload_is_defined_with_the_same_why(declared):
    workload = workloads.WORKLOADS.get(declared["name"])
    assert workload is not None, f"perfbench/workloads.py has no {declared['name']!r}"
    assert workload.why == declared["why"]


@pytest.mark.parametrize("declared", SPEC["per_layer"], ids=lambda m: m["name"])
def test_declared_per_layer_metric_is_reported_with_its_unit(declared):
    units = tracer.per_layer_units()
    assert declared["name"] in units, f"the tracer reports no {declared['name']!r}"
    assert units[declared["name"]] == (declared["unit"], declared["better"])
