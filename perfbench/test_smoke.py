#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload, traced and
untraced, must pass its answer checks and print exactly the metrics that
BENCHMARK.json declares, with the declared units.

    python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec[section]}


def tiny_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, trace, section):
        spec, units = declared(section)
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                result = tiny_run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_untraced_run_prints_the_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_the_per_layer_metrics(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
