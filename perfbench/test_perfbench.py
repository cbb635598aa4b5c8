#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary, runs the C++ helper tests (percentile,
ratio, digest, workload definitions), checks the compare verdict rule and
that the metric names it prints match BENCHMARK.json, and smoke-runs
every workload once at tiny scale, untraced and traced.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class BuildAndHelpers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()

    def test_cpp_helpers(self):
        subprocess.run([str(self.build_dir / "perfbench_selftest")], check=True)

    def test_unknown_flag_is_refused(self):
        proc = subprocess.run([str(self.build_dir / "perfbench"), "--bogus"],
                              capture_output=True, check=False)
        self.assertEqual(proc.returncode, 2)


class Smoke(unittest.TestCase):
    def test_every_workload_untraced(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                r = tiny_run(workload, 0)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()},
                                 expected)
                self.assertTrue(all(v["value"] > 0 for v in r["metrics"].values()))

    def test_every_workload_traced(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                r = tiny_run(workload, 1)
                self.assertTrue(r["correct"])
                self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()},
                                 expected)
                m = {k: v["value"] for k, v in r["metrics"].items()}
                self.assertEqual(m["analysis.trace_violations"], 0)
                self.assertEqual(m["verify.invariant_violations"], 0)
                self.assertEqual(m["sim.closures_pooled"], 0)
                app = m["app.loops_started"] + m["app.registrations"]
                if workload == "faults":
                    self.assertGreater(app, 0)
                else:
                    self.assertEqual(app, 0)


class CompareRule(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))
        self.assertEqual(compare.quartiles([7]), (7, 7, 7))
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5]), 1.0)

    def test_clear_gain(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [x * 0.8 for x in base]
        self.assertEqual(compare.verdict(base, change, 0.1), "better")

    def test_gain_needs_nine_of_ten_wins(self):
        base = [10.0] * 10
        change = [9.0] * 8 + [10.5, 10.5]
        self.assertEqual(compare.verdict(base, change, 0.2), "same")

    def test_regression_beyond_bound(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.0]
        change = [12.0, 12.1, 11.9, 12.0, 12.0]
        self.assertEqual(compare.verdict(base, change, 0.1), "worse")
        self.assertEqual(compare.verdict(base, change, 0.25), "same")

    def test_wide_spread_is_unresolved(self):
        base = [5.0, 10.0, 15.0, 10.0, 8.0]
        change = [6.0, 11.0, 14.0, 9.0, 12.0]
        self.assertEqual(compare.verdict(base, change, 0.1), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base = [20.0, 30.0, 40.0]
        change = [5.0, 8.0, 12.0]
        self.assertEqual(compare.verdict(base, change, 0.1),
                         "better (every run)")

    def test_higher_is_better(self):
        base = [100.0] * 10
        change = [130.0] * 10
        self.assertEqual(compare.verdict(base, change, 0.1, "higher"),
                         "better")
        self.assertEqual(compare.verdict(change, base, 0.1, "higher"),
                         "worse")


if __name__ == "__main__":
    unittest.main(verbosity=2)
