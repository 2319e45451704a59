#!/usr/bin/env python3
"""The benchmark's own tests, on shrunken streams (run.py --quick).

    python3 perfbench/test_perfbench.py

- The timing decorators are behaviour-neutral: every workload's results
  (a digest over the bits of every scored estimate) are identical with and
  without them.
- Counts are deterministic: two runs with one seed report identical work
  counts and results; another seed changes the inputs but not the metric
  names.
- Every run reports exactly the metrics BENCHMARK.json lists, with their
  units, and no end-to-end metric reads 0.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compare-nine", "guarded-durable")
COUNTS = ("kernel.nnz_per_slice", "kernel.flops_per_slice", "guard.trips",
          "durable.journal_bytes", "pipeline.pattern_builds")


def run(workload, seed, trace=0, decorators=1):
    """Returns (detail, result) of one quick run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--quick",
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--decorators", str(decorators)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s failed (exit %d)" % (cmd, proc.returncode))
    return json.loads(lines[-2]), json.loads(lines[-1])


class MetricsTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, result = run(workload, seed=1, trace=trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(want, got)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)


class DecoratorsTest(unittest.TestCase):
    def test_results_identical_without_decorators(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain, _ = run(workload, seed=3, decorators=0)
                timed, result = run(workload, seed=3, decorators=1)
                self.assertTrue(result["correct"])
                self.assertEqual(plain["digest"], timed["digest"])
                self.assertEqual(plain["rae"], timed["rae"])


class DeterminismTest(unittest.TestCase):
    def test_counts_repeat_and_seeds_differ(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first_detail, first = run(workload, seed=1, trace=1)
                again_detail, again = run(workload, seed=1, trace=1)
                other_detail, other = run(workload, seed=2, trace=1)
                for result in (first, again, other):
                    self.assertTrue(result["correct"])
                self.assertEqual(first_detail["digest"],
                                 again_detail["digest"])
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name],
                                     again["metrics"][name], name)
                self.assertGreater(first["metrics"]["kernel.nnz_per_slice"]
                                   ["value"], 0)
                self.assertNotEqual(first_detail["digest"],
                                    other_detail["digest"])
                self.assertEqual(sorted(first["metrics"]),
                                 sorted(other["metrics"]))


if __name__ == "__main__":
    unittest.main()
