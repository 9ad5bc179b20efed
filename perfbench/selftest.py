"""Self-tests of the benchmark's own code.

Run from the repository root with ``python3 perfbench/selftest.py``. They
are kept out of the package's pytest suite; the tests that need the
package import it from ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import unittest
from dataclasses import replace

import checks
import measure
import run
import tracer
from workloads import WORKLOADS, Workload, slice_loads

sys.path.insert(0, str(run.SRC))

TINY = Workload(
    "tiny", "small enough for a self-test", db_size=64, subsystems=4, strategy="all",
    trials=200, repeat_rounds=3, slice_loads=(2, 1),
)


def _cli_report(workload: Workload, seed: int, trials: int | None = None) -> bytes:
    from probegrover.cli import run_command

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(workload.argv(seed, trials)) == 0
    return out.getvalue().encode()


class OrderStatistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(measure.median(values), 3.75)
        self.assertEqual(measure.quartiles(values), (1.875, 5.625))
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(measure.relative_spread(values), (q3 - q1) / 3.75)

    def test_single_value_has_no_spread(self):
        self.assertEqual(measure.relative_spread([2.5]), 0.0)


class BinomialBound(unittest.TestCase):
    def test_bound_accepts_the_centre_and_rejects_far_tails(self):
        self.assertTrue(checks.within_binomial_bound(500, 1000, 0.5))
        self.assertFalse(checks.within_binomial_bound(600, 1000, 0.5))
        self.assertFalse(checks.within_binomial_bound(400, 1000, 0.5))

    def test_certain_outcomes(self):
        self.assertTrue(checks.within_binomial_bound(20, 20, 1.0))
        self.assertFalse(checks.within_binomial_bound(19, 20, 1.0))
        self.assertTrue(checks.within_binomial_bound(0, 20, 0.0))


class ReportChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report = _cli_report(TINY, seed=3)

    def test_true_report_passes(self):
        self.assertEqual(checks.check_report(TINY, 3, TINY.trials, self.report), [])

    def test_broken_ledger_identity_fails(self):
        envelope = json.loads(self.report)
        envelope["summaries"][1]["mean_ledger"]["qubits_measured"] += 1
        self.assertTrue(checks.check_report(TINY, 3, TINY.trials, json.dumps(envelope).encode()))

    def test_implausible_success_count_fails(self):
        envelope = json.loads(self.report)
        summary = envelope["summaries"][0]
        summary["successes"] = summary["misses"] = TINY.trials // 2
        summary["empirical_success_rate"] = envelope["comparison"][0]["success_rate"] = 0.5
        self.assertTrue(checks.check_report(TINY, 3, TINY.trials, json.dumps(envelope).encode()))

    def test_missing_envelope_key_fails(self):
        envelope = json.loads(self.report)
        del envelope["version"]
        self.assertTrue(checks.check_report(TINY, 3, TINY.trials, json.dumps(envelope).encode()))

    def test_malformed_summary_fails_without_raising(self):
        envelope = json.loads(self.report)
        envelope["summaries"][0]["mean_ledger"] = None
        self.assertTrue(checks.check_report(TINY, 3, TINY.trials, json.dumps(envelope).encode()))


class Digest(unittest.TestCase):
    report = json.dumps({"version": "9.9"}).encode()
    pins = {"seed": 1, "versions": {"9.9": {"w": checks.sha256(report)}}}

    def test_pinned_report_passes(self):
        self.assertEqual(checks.check_digest(self.pins, "w", 1, self.report), [])

    def test_tampered_report_fails(self):
        tampered = self.report.replace(b"}", b" }")
        self.assertTrue(checks.check_digest(self.pins, "w", 1, tampered))

    def test_unpinned_seed_and_version_are_not_checked(self):
        tampered = self.report.replace(b"}", b" }")
        self.assertEqual(checks.check_digest(self.pins, "w", 2, tampered), [])
        other = json.dumps({"version": "10.0"}).encode()
        self.assertEqual(checks.check_digest(self.pins, "w", 1, other), [])


class ChildUsage(unittest.TestCase):
    def test_peak_rss_belongs_to_one_child(self):
        env = {"PATH": "/usr/bin:/bin"}
        big = measure.run_child(
            [sys.executable, "-c", "b = b'x' * (200 << 20)"], env, timeout=60
        )
        small = measure.run_child([sys.executable, "-c", "pass"], env, timeout=60)
        self.assertEqual((big.returncode, small.returncode), (0, 0))
        self.assertGreater(big.peak_rss_mb, 200)
        self.assertLess(small.peak_rss_mb, 100)

    def test_output_and_timeout(self):
        child = measure.run_child(
            [sys.executable, "-c", "print('hi', flush=True); import time; time.sleep(30)"], {}, timeout=1
        )
        self.assertTrue(child.timed_out)
        self.assertEqual(child.stdout, b"hi\n")
        self.assertLess(child.wall_s, 10)


class Tracing(unittest.TestCase):
    def test_traced_output_is_identical_and_spans_nest(self):
        import probegrover.cli as cli

        untraced = _cli_report(TINY, seed=5)
        with tracer.Tracer() as active:
            traced = _cli_report(TINY, seed=5)
        self.assertEqual(traced, untraced)
        self.assertEqual(active.absent, [])
        spans = active.spans
        self.assertEqual(spans["cli.run_command"].calls, 1)
        self.assertEqual(spans["distributed.run_trials"].calls, 4)
        self.assertEqual(spans["distributed.validate"].calls, 4 * TINY.trials + 8)
        self.assertGreaterEqual(
            spans["cli.run_command"].busy_s, spans["distributed.run_trials"].busy_s
        )
        self.assertLess(spans["distributed.run_trials"].self_s, spans["distributed.run_trials"].busy_s)
        metrics = tracer.layer_metrics(active)
        # Distinct inputs: the slices holding 2, 1 and 0 marked items, and the whole database.
        self.assertEqual(round(metrics["grover.distinct_ratio"] * metrics["grover.run_grover.calls"]), 4)
        self.assertFalse(hasattr(cli.run_command, "__wrapped__"))

    def test_patches_are_restored(self):
        import probegrover
        import probegrover.distributed as distributed
        import probegrover.ledger as ledger

        before = (distributed.child_rng, probegrover.child_rng, vars(ledger.CostLedger)["__add__"])
        with tracer.Tracer():
            self.assertIsNot(distributed.child_rng, before[0])
            self.assertIsNot(probegrover.child_rng, before[1])
        after = (distributed.child_rng, probegrover.child_rng, vars(ledger.CostLedger)["__add__"])
        self.assertEqual([a is b for a, b in zip(after, before)], [True] * 3)

    def test_removed_targets_are_absent_not_fatal(self):
        targets = dict(tracer.TARGETS)
        targets["seeding.gone"] = ("seeding", "no_such_function", None)
        targets["gone.module"] = ("no_such_module", "f", None)
        targets["distributed.gone_method"] = ("distributed", "ExperimentConfig.no_such", None)
        with tracer.Tracer(targets) as active:
            _cli_report(TINY, seed=5, trials=2)
        self.assertEqual(
            sorted(active.absent), ["distributed.gone_method", "gone.module", "seeding.gone"]
        )
        self.assertIn("seeding.child_rng.calls", tracer.layer_metrics(active))

    def test_metrics_of_absent_spans_are_left_out(self):
        active = tracer.Tracer({})
        self.assertEqual(tracer.layer_metrics(active), {})


class BenchmarkFile(unittest.TestCase):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_metrics_match_the_code(self):
        end_to_end = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}
        self.assertEqual(end_to_end, run.END_TO_END)
        self.assertEqual(per_layer, tracer.per_layer_units())
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_workloads_match_the_code(self):
        self.assertEqual(
            {w["name"]: w["why"] for w in self.spec["workloads"]},
            {w.name: w.why for w in WORKLOADS.values()},
        )

    def test_inputs_follow_the_seed(self):
        for workload in WORKLOADS.values():
            self.assertEqual(workload.argv(7), workload.argv(7))
            loads = sorted(load for load in slice_loads(workload, workload.marked(7)) if load)
            self.assertEqual(loads, sorted(workload.slice_loads))
        wide = WORKLOADS["wide-merge"]
        self.assertNotEqual(wide.marked(1), wide.marked(2))
        self.assertEqual(replace(wide, trials=1).argv(3), wide.argv(3, trials=1))


if __name__ == "__main__":
    unittest.main()
