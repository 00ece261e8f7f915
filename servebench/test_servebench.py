#!/usr/bin/env python3
"""Self-test of the serving benchmark: every workload at tiny size.

Runs each workload untraced and traced through run.py and checks that the
last line is the result JSON, that it carries every metric BENCHMARK.json
names with its unit and a finite value, and that no operation failed.
From the repository root:

    python3 -m unittest servebench/test_servebench.py
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seconds=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class ServeBenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def check_result(self, workload, trace, metrics_key):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.spec[metrics_key]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return lines, result

    def test_untraced_reports_end_to_end_metrics(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                lines, result = self.check_result(workload, 0, "end_to_end")
                self.assertTrue(any(line.startswith("  failed_frac 0 ratio")
                                    for line in lines))
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_traced_reports_layer_metrics(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                lines, result = self.check_result(workload, 1, "per_layer")
                self.assertTrue(any("layer budget" in line
                                    for line in lines))
                metrics = result["metrics"]
                self.assertGreater(metrics["trace.overhead"]["value"], 0)
                self.assertGreater(metrics["server.dispatch_us"]["value"], 0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            os.mkdir(os.path.join(bare, "servebench"))
            for name in os.listdir(HERE):
                path = os.path.join(HERE, name)
                if os.path.isfile(path):
                    with open(path, "rb") as src, open(
                            os.path.join(bare, "servebench", name),
                            "wb") as dst:
                        dst.write(src.read())
            proc = subprocess.run(
                [sys.executable, "servebench/run.py", "--workload",
                 "mget_loopback", "--seed", "1", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
