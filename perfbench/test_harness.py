#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny scale.

    python3 perfbench/test_harness.py

From the repository root. Runs every workload with tiny graphs, traced and
untraced, and checks that the result line carries exactly the metrics
BENCHMARK.json names, each with its unit; that every metric in the readable
report has a unit; and that failed queries (rejected, shed, bad request,
malformed line) count against fail_share.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from harness import Daemon, is_failure, outcome  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s trace=%d failed:\n%s" % (
            workload, trace, done.stderr))
    return done.stdout.strip().splitlines()


class ResultLineTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as spec:
            cls.spec = json.load(spec)

    def test_workloads_match(self):
        # compile_cold is run by hand only (README.md, "Noise").
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         [w for w in WORKLOADS if w != "compile_cold"])

    def check(self, workload, trace):
        lines = bench(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        for line in lines:
            if line.startswith(("# e2e", "# layer")):
                fields = line.split()
                self.assertGreaterEqual(len(fields), 5, line)
                self.assertTrue(fields[4] and not fields[4].startswith("n="),
                                "metric without a unit: " + line)
        report = [l for l in lines if l.startswith("# report ")][0]
        with open(report.split(" ", 2)[2]) as f:
            saved = json.load(f)
        for key in ("nproc", "ugcd_threads", "build_type", "commit",
                    "compiler", "loadavg", "seed", "cycles_digest"):
            self.assertIn(key, saved["context"])
        self.assertIn("fail_share", saved["end_to_end"])

    def test_serve_mix(self):
        self.check("serve_mix", 0)
        self.check("serve_mix", 1)

    def test_analytics(self):
        self.check("analytics", 0)
        self.check("analytics", 1)

    def test_compile_cold(self):
        self.check("compile_cold", 0)
        self.check("compile_cold", 1)


class FailShareTest(unittest.TestCase):
    """Rejected, shed and bad-request answers are failures."""

    def setUp(self):
        harness.build()
        harness.prep_graphs(["TW:tiny"])

    def run_lines(self, daemon, lines):
        _, reqs = daemon.send(*lines + ["sync"])
        daemon.wait_for(reqs[-1], ("synced",))
        return [outcome(daemon, req) for req in reqs[:-1]]

    def test_rejected_and_bad_requests_count(self):
        daemon = Daemon(1, ["--builtins", "--max-in-flight", "1"])
        try:
            got = self.run_lines(daemon, [
                "graph TW scale=tiny",
                "run algo=pr graph=TW arg3=50",
                "run algo=pr graph=TW arg3=50",   # window full: rejected
                "run algo=nope graph=TW wait=1",  # bad request result
                "run algo=bfs graph=TW start=x",  # malformed: error line
            ])
        finally:
            daemon.quit()
        self.assertFalse(is_failure(got[1]))
        self.assertEqual(got[2]["status"], "rejected")
        self.assertEqual(got[3]["status"], "bad_request")
        self.assertEqual(got[4]["type"], "error")
        self.assertEqual([is_failure(r) for r in got[1:]],
                         [False, True, True, True])
        self.assertTrue(is_failure(None))

    def test_shed_counts(self):
        daemon = Daemon(1, ["--builtins", "--queue-deadline-ms", "1"])
        try:
            got = self.run_lines(daemon, ["graph TW scale=tiny"] + [
                "run algo=pr graph=TW arg3=200"] * 40)
        finally:
            daemon.quit()
        shed = [r for r in got[1:] if r.get("status") == "shed"]
        self.assertTrue(shed, "no query was shed")
        self.assertTrue(all(is_failure(r) for r in shed))


if __name__ == "__main__":
    harness.check_checkout()
    unittest.main()
