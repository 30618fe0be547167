#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 benchmark/test_benchmark.py

Each test builds (if needed) and runs benchmark/run.py with one- or
two-second measurements, so the whole file takes about a minute.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "benchmark", "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(*args):
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def check_metrics(self, res, spec_metrics):
        self.assertEqual(sorted(res.keys()), ["attempted", "correct", "failed", "metrics"])
        want = {m["name"]: m["unit"] for m in spec_metrics}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                res = result("--workload", workload, "--seconds", "1", "--trace", "0")
                self.check_metrics(res, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                res = result("--workload", workload, "--seconds", "1", "--trace", "1")
                self.check_metrics(res, SPEC["per_layer"])
                self.assertTrue(res["correct"])


class CheckTest(unittest.TestCase):
    def test_forced_check_failure_is_counted(self):
        for workload in ("partitioned", "runtime"):
            with self.subTest(workload=workload):
                res = result("--workload", workload, "--seconds", "2", "--force-fail")
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertGreater(res["attempted"], res["failed"])


class InputsTest(unittest.TestCase):
    def digest(self, workload, seed):
        proc = run("--workload", workload, "--seed", str(seed), "--inputs-digest")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout.strip().splitlines()[-1]

    def test_seed_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 1), self.digest(workload, 1))
                self.assertNotEqual(self.digest(workload, 1), self.digest(workload, 2))


class UsageTest(unittest.TestCase):
    def test_bad_arguments_exit_2(self):
        for args in (["--workload", "nope"], ["--workload", "hogs", "--trace", "2"],
                     ["--workload", "hogs", "--seconds", "0"], ["--bogus"]):
            with self.subTest(args=args):
                proc = run(*args)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout.strip(), "")

    def test_fails_without_program_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "benchmark"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
