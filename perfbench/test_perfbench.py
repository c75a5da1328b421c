#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/test_perfbench.py

For every workload: two untraced and two traced runs on a seed the
benchmark was not tuned on.  Every correctness gate must pass, untraced
runs must report every end-to-end metric and traced runs every
per-layer metric, and the work counters and rep_paths must repeat exactly
between the two runs.  Takes about five minutes.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SEED = 7
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORK_COUNTERS = [
    "timing.paths_enumerated",
    "variation.params",
    "linalg.svd.sweeps",
    "core.select.svd_route",
    "core.select.candidates",
    "linalg.syrk.flops",
    "linalg.gemm.flops",
    "core.shard.shards",
    "core.shard.repair_promotions",
]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s\n%s" % (
            workload, proc.returncode, proc.stdout[-3000:], proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class PerfbenchTest(unittest.TestCase):
    def check_run(self, result, stdout, names, nonzero):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        if nonzero:
            for name in names:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced = [run(workload, 0) for _ in range(2)]
                for result, stdout in untraced:
                    self.check_run(result, stdout, END_TO_END, nonzero=True)
                self.assertEqual(untraced[0][0]["metrics"]["rep_paths"],
                                 untraced[1][0]["metrics"]["rep_paths"])

                traced = [run(workload, 1) for _ in range(2)]
                for result, stdout in traced:
                    self.check_run(result, stdout, PER_LAYER, nonzero=False)
                    self.assertIn("unattributed_s", stdout)
                for name in WORK_COUNTERS:
                    self.assertEqual(traced[0][0]["metrics"][name],
                                     traced[1][0]["metrics"][name], name)


if __name__ == "__main__":
    unittest.main()
