#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload briefly, untraced and traced, through
`run.py --smoke` (which fails unless every metric BENCHMARK.json
names is emitted with its unit and every traced run's Chrome trace
passes jitsched-trace-check), and checks that a directory holding
only the benchmark's own files is refused without a result.

  python3 perfbench/test_smoke.py        (from the checkout root)
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


class SmokeTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        proc = subprocess.run([sys.executable, RUN, "--smoke"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=1200)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for w in spec["workloads"]:
            for trace in (0, 1):
                self.assertIn("smoke %s trace=%d:" % (w["name"], trace),
                              proc.stdout)
        self.assertNotIn("INCORRECT", proc.stdout)

    def test_refuses_without_sources(self):
        build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "iar-stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
