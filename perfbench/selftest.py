#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at smoke sizes, in seconds.

    python3 perfbench/selftest.py

Runs each workload untraced and traced through run.py and checks that the
run is correct, that every metric BENCHMARK.json names is emitted with its
unit, and that the exact counts repeat bit-for-bit for a fixed seed.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()

    def check(self, workload, trace):
        line, record = run.run(workload, SEED, 1, trace, smoke=True)
        self.assertTrue(line["correct"], record["problems"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(line["metrics"]),
                         sorted(m["name"] for m in wanted))
        for metric in wanted:
            got = line["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
        return record

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_exact_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.check(workload, 0)["report"]["counts"]
                second = self.check(workload, 0)["report"]["counts"]
                exact = [k for k in first if k in run.EXACT_COUNTS]
                self.assertTrue(exact)
                for name in exact:
                    self.assertEqual(first[name], second[name], name)

    def test_last_line_is_the_result(self):
        done = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "wire-open", "--seed", str(SEED), "--seconds", "1", "--trace",
             "0", "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(line),
                         ["attempted", "correct", "failed", "metrics"])


if __name__ == "__main__":
    unittest.main()
