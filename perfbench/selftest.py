"""Tests of the benchmark itself, at smoke sizes (about half a minute).

    python3 perfbench/selftest.py

Kept out of the repository's pytest run on purpose: these run the
benchmark loop with wall-clock deadlines.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from offloadlab import cli, datagen, features, greedy, spectral  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.3


def smoke(workload: str, trace: bool, seed: int = 1):
    return run.run_workload(workload, seed, SECONDS, trace, scale="smoke")


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_by_name_and_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, report = smoke(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace:
                        continue
                    extra = set(report["metrics"])
                    self.assertLessEqual({"fail_ratio", "wall_s_n"}, extra)
                    self.assertEqual("eval_best_mae_j" in extra, workload == "learn")
                    self.assertIn("greedy_gap_pct", extra)
                    self.assertEqual(report["environment"]["workload_seed"], 1)

    def test_optimum_reached_on_optimize(self):
        result, report = smoke("optimize-large", False)
        self.assertAlmostEqual(report["metrics"]["greedy_gap_pct"]["value"], 0.0, places=9)
        self.assertAlmostEqual(result["metrics"]["greedy_energy_ratio"]["value"], 1.0,
                               places=12)


class CorruptedOutput(unittest.TestCase):
    def patch(self, owner, name, replacement):
        original = getattr(owner, name)
        setattr(owner, name, replacement(original))
        self.addCleanup(setattr, owner, name, original)

    def assert_all_failed(self, workload):
        result, report = smoke(workload, False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(report["metrics"]["fail_ratio"]["value"], 1.0)

    def test_wrong_dataset_target_counts_as_failed(self):
        def corrupting(original):
            def to_csv(self, path):
                original(self, path)
                lines = Path(path).read_text().splitlines()
                cells = lines[1].split(",")
                cells[-1] = repr(float(cells[-1]) * 1.001)
                lines[1] = ",".join(cells)
                Path(path).write_text("\n".join(lines) + "\n")
            return to_csv
        self.patch(features.Dataset, "to_csv", corrupting)
        self.assert_all_failed("gen-data-balanced")

    def test_wrong_solution_ratio_counts_as_failed(self):
        def corrupting(original):
            def write_trace_csv(solution, path):
                original(solution, path)
                target = Path(path).with_name("solution.json")
                payload = json.loads(target.read_text())
                payload["offload_ratios"][0] = 0.25
                target.write_text(json.dumps(payload))
            return write_trace_csv
        self.patch(greedy, "write_trace_csv", corrupting)
        self.assert_all_failed("optimize-large")

    def test_non_zero_exit_counts_as_failed(self):
        self.patch(cli, "main", lambda original: lambda argv: 1)
        self.assert_all_failed("learn")


class TracedRun(unittest.TestCase):
    def test_self_times_sum_to_op_wall_within_overhead(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = smoke(workload, True)
                m = {name: v["value"] for name, v in result["metrics"].items()}
                self_sum = sum(m[f"{layer}.self_s"] for layer in run.tracing.LAYERS)
                # the self times partition the traced op; what is left is
                # the benchmark's own loop between CLI invocations
                traced_wall = m["trace.op_wall_s"] + m["trace.overhead_s"]
                self.assertLessEqual(self_sum, traced_wall)
                self.assertLess(traced_wall - self_sum, 0.002 + 0.01 * traced_wall)

    def test_every_import_site_is_traced_and_restored(self):
        originals = (cli.main, cli.rank_features, datagen.calc_se, spectral.calc_se,
                     spectral.SpectralEfficiencyCache.__call__)
        result, _ = smoke("optimize-large", True)
        m = {name: v["value"] for name, v in result["metrics"].items()}
        devices = run.SIZES["smoke"]["devices"]
        # once from generate_scenario (datagen's binding), once per cache miss
        self.assertEqual(m["spectral.calc_se.calls"], 2 * devices)
        self.assertEqual(m["spectral.cache.hit_ratio"],
                         1 - devices / m["spectral.cache.lookups"])
        result, _ = smoke("learn", True)
        m = {name: v["value"] for name, v in result["metrics"].items()}
        self.assertGreater(m["features.rank_features.busy_s"], 0.0)  # cli's binding
        self.assertEqual(m["cluster.kmeans_fit.calls"],
                         len(run.EVAL_SUBSETS) * run.K_MAX + 1)
        self.assertEqual((cli.main, cli.rank_features, datagen.calc_se, spectral.calc_se,
                          spectral.SpectralEfficiencyCache.__call__), originals)


if __name__ == "__main__":
    unittest.main()
