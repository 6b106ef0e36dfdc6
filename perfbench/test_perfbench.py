#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the benchmark (as perfbench/run.py does), runs its C++ self-tests
of the window, quartile, percentile and span arithmetic, and checks that
BENCHMARK.json keeps to the limits of its format and lists exactly the
metrics the program prints, every name made of [A-Za-z0-9_.-] only.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import unittest

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def build_dir():
    return os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.bench = json.load(f)

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(len(b["command"]) <= 32)
        self.assertTrue(all(len(c) <= 200 for c in b["command"]))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = [m["name"] for group in ("workloads", "end_to_end",
                                         "per_layer") for m in b[group]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_quartiles_match_python(self):
        # The C++ self-test hard-codes these; keep them honest here.
        self.assertEqual(statistics.quantiles(range(1, 11), n=4),
                         [2.75, 5.5, 8.25])
        self.assertEqual(statistics.quantiles([1, 2], n=4), [0.75, 1.5, 2.25])
        self.assertEqual(statistics.quantiles([3.5, 1.25, 9.0, 4.0, 2.0], n=4),
                         [1.625, 3.5, 6.5])


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--selftest"], capture_output=True, text=True, check=False)
        cls.selftest = done
        cls.binary = os.path.join(build_dir(), "llsc_perfbench")

    def test_selftest_passes(self):
        self.assertEqual(self.selftest.returncode, 0, self.selftest.stderr)
        self.assertIn("selftest ok", self.selftest.stdout)

    def test_metric_tables_match_benchmark_json(self):
        listed = json.loads(subprocess.run(
            [self.binary, "--list-metrics"], capture_output=True, text=True,
            check=True).stdout)
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        for group in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in listed[group]],
                [(m["name"], m["unit"]) for m in bench[group]], group)

    def test_refuses_overridden_defaults(self):
        for key in ("LLSC_STORAGE_POLICY", "LLSC_RECLAIMER",
                    "LLSC_TIMEOUT_MS"):
            env = dict(os.environ, **{key: "1"})
            done = subprocess.run(
                [self.binary, "--workload", "lowerbound", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], env=env,
                capture_output=True, text=True, check=False)
            self.assertNotEqual(done.returncode, 0, key)
            self.assertEqual(done.stdout, "", key)


if __name__ == "__main__":
    unittest.main()
