"""Smoke tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests

Each workload runs at reduced size (`--smoke`), plain and traced; every
metric BENCHMARK.json names must come back with a number and its unit.
A copy of the benchmark without the rest of the repository must fail
without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def result_line(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        done = run("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = result_line(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            self.assertRegex(done.stdout, rf"\n  {metric['name']} .* {metric['unit']}\n")
        self.assertIn("output_ok", done.stdout)
        self.assertIn("fail_ratio", done.stdout)
        self.assertIn("host: cores=", done.stdout)
        return result

    def test_report_quick(self):
        for trace in (0, 1):
            self.check("report-quick", trace)

    def test_broadcast_large(self):
        for trace in (0, 1):
            self.check("broadcast-large", trace)

    def test_sweep_store(self):
        plain = self.check("sweep-store", 0)
        self.assertGreater(plain["metrics"]["setup_s"]["value"], 0)
        traced = self.check("sweep-store", 1)
        self.assertGreater(traced["metrics"]["store.appends"]["value"], 0)
        self.assertGreater(traced["metrics"]["export.bytes"]["value"], 0)

    def test_benchmark_alone_fails_without_a_result(self):
        alone = ROOT / ".bench_run" / f"alone-{os.getpid()}"
        shutil.rmtree(alone, ignore_errors=True)
        try:
            alone.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", alone)
            shutil.copytree(ROOT / "perfbench", alone / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-store",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=alone, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
