#!/usr/bin/env python3
"""Tests of the perfbench binary. Run from anywhere:

    python3 perfbench/tests/test_perfbench.py

The first run builds the binary (see perfbench/run.py).
"""

import json
import os
import re
import subprocess
import sys
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(TESTS)
ROOT = os.path.dirname(PACKAGE)
sys.path.insert(0, PACKAGE)

import run as runner  # noqa: E402

WORKLOADS = ["launch", "zygote_churn", "mem_pressure"]
DEFAULT_SEED = "1"
BINARY = None


def setUpModule():
    global BINARY
    BINARY = runner.build()


def perfbench(*args):
    return subprocess.run([BINARY] + list(args), capture_output=True,
                          text=True, cwd=ROOT)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(proc):
    return re.findall(r"^digest \S+\s+(0x[0-9a-f]{16})", proc.stdout, re.M)


class GeneratorTest(unittest.TestCase):
    def dump(self, workload, seed):
        proc = perfbench("--workload", workload, "--seed", seed,
                         "--dump-ops", "200")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        self.assertEqual(len(lines), 200)
        return lines

    def test_same_seed_same_ops(self):
        for workload in WORKLOADS:
            self.assertEqual(self.dump(workload, "7"), self.dump(workload, "7"),
                             workload)

    def test_different_seeds_different_ops(self):
        for workload in WORKLOADS:
            self.assertNotEqual(self.dump(workload, "7"),
                                self.dump(workload, "8"), workload)


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        proc = perfbench("--list-metrics")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        listed = {"end_to_end": [], "per_layer": []}
        for line in proc.stdout.splitlines():
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for kind in listed:
            declared = [(m["name"], m["unit"]) for m in bench[kind]]
            self.assertEqual(listed[kind], declared, kind)
        self.assertLessEqual(len(listed["end_to_end"]), 16)
        self.assertLessEqual(len(listed["per_layer"]), 128)
        names = [n for kind in listed for n, _ in listed[kind]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)

    def test_bad_arguments_are_refused(self):
        for args in (["--workload", "nope"],
                     ["--workload", "launch", "--trace", "2"],
                     ["--workload", "launch", "--seconds", "0"],
                     ["--workload", "launch", "--seed", "-1"]):
            proc = perfbench(*args)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertEqual(proc.stdout, "", args)


class DigestTest(unittest.TestCase):
    def test_traced_digest_equals_untraced(self):
        for workload in ["zygote_churn", "mem_pressure"]:
            proc = perfbench("--workload", workload, "--seed", "5",
                             "--seconds", "1", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
            found = digests(proc)
            self.assertEqual(len(found), 2, proc.stdout)
            self.assertEqual(found[0], found[1], workload)
            self.assertTrue(result_line(proc)["correct"])

    def test_default_seed_matches_recorded_digest(self):
        # A change that only makes the simulator faster must leave every
        # simulated counter, and so this digest, unchanged. A change that
        # moves a simulated statistic on purpose updates
        # golden_digests.json and says why.
        with open(os.path.join(PACKAGE, "golden_digests.json")) as f:
            golden = json.load(f)
        for workload in WORKLOADS:
            proc = perfbench("--workload", workload, "--seed", DEFAULT_SEED,
                             "--seconds", "1")
            self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
            self.assertEqual(digests(proc), [golden[workload]], workload)

    def test_second_seed_runs_clean(self):
        for workload in WORKLOADS:
            proc = perfbench("--workload", workload, "--seed", "2",
                             "--seconds", "1")
            self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
            result = result_line(proc)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertNotIn("VIOLATED", proc.stdout)
            self.assertEqual(
                sorted(result["metrics"]),
                sorted(["setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail",
                        "sim_lines_per_s", "peak_rss_mb", "failed_frac"]))
            for metric in result["metrics"].values():
                self.assertGreater(metric["value"], 0)


if __name__ == "__main__":
    unittest.main()
