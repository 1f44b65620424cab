#!/usr/bin/env python3
"""Work-count determinism test for the perfbench harness.

    python3 perfbench/test_determinism.py

Two short fixed-length runs (--rounds) of each workload on one seed must give
identical work counts (traced run) and identical answer quality (untraced
run), and every metric BENCHMARK.json names must be present, finite and carry
its declared unit.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
ROUNDS = 12

WORK_COUNTS = ("filter.runs", "filter.resumes", "filter.seconds",
               "query.sub_dirty", "rfid.applied", "persist.wal_bytes")
QUALITY = ("range_kl", "knn_hit")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--rounds", str(ROUNDS)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{done.returncode}\n{done.stdout[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class DeterminismTest(unittest.TestCase):
    spec = load_spec()

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, unit in declared.items():
            metric = result["metrics"][name]
            self.assertTrue(math.isfinite(metric["value"]), name)
            self.assertEqual(metric["unit"], unit, name)

    def test_workloads(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                traced = [run(workload, 1) for _ in range(2)]
                plain = [run(workload, 0) for _ in range(2)]
                for result in traced:
                    self.check_metrics(result, layers)
                for result in plain:
                    self.check_metrics(result, e2e)
                for name in WORK_COUNTS:
                    self.assertEqual(traced[0]["metrics"][name]["value"],
                                     traced[1]["metrics"][name]["value"],
                                     f"{workload}: {name}")
                for name in QUALITY:
                    self.assertEqual(plain[0]["metrics"][name]["value"],
                                     plain[1]["metrics"][name]["value"],
                                     f"{workload}: {name}")


if __name__ == "__main__":
    unittest.main()
