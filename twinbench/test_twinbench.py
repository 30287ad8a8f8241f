#!/usr/bin/env python3
"""The benchmark's own tests: input generation, metric declarations and a
tiny-size smoke run of every workload through the correctness gate.

    python3 twinbench/test_twinbench.py

Builds the benchmark program like run.py does (the first time takes
minutes), then runs in well under a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build entry point)

WORKLOADS = ["serve-mixed", "integrate-n2k"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Program:
    """Runs the built program in a scratch directory under the build tree."""

    workdir = None

    @classmethod
    def call(cls, *args):
        return subprocess.run(
            [run.BINARY, *args, "--workdir", cls.workdir], cwd=ROOT,
            capture_output=True, text=True, timeout=170)

    @classmethod
    def result(cls, workload, seed, trace, *extra):
        proc = cls.call("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace),
                        "--size", "tiny", *extra)
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, json.loads(lines[-1]) if lines else None, proc

    @classmethod
    def plan(cls, workload, seed, seconds=40):
        proc = cls.call("--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--dump-plan")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout


def setUpModule():
    run.build()
    Program.workdir = os.path.relpath(
        tempfile.mkdtemp(prefix="test-", dir=os.path.join(ROOT, ".bench_build")),
        ROOT)


def tearDownModule():
    shutil.rmtree(os.path.join(ROOT, Program.workdir), ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            self.assertEqual(Program.plan(w, 7), Program.plan(w, 7), w)

    def test_different_seeds_different_inputs(self):
        for w in WORKLOADS:
            self.assertNotEqual(Program.plan(w, 7), Program.plan(w, 8), w)

    def test_run_length_leaves_inputs_alone(self):
        for w in WORKLOADS:
            self.assertEqual(Program.plan(w, 7, 1), Program.plan(w, 7, 60), w)

    def test_mixed_population(self):
        plan = Program.plan("serve-mixed", 3)
        passes = plan.split("\npass ")
        self.assertEqual(len(passes), 4)
        self.assertEqual(len(set(p.split("\n", 1)[1] for p in passes)), 4)
        load = plan.split("service")[1].splitlines()[1:]
        inter = [l for l in load if "prio=interactive" in l]
        batch = [l for l in load if "prio=batch" in l]
        # The turnaround percentiles pool the passes: >= 10 beyond the p95.
        self.assertGreaterEqual(len(passes) * len(inter), 200)
        self.assertTrue(any("boards=4 min=4 max=4" in l for l in batch))
        self.assertTrue(any("min=1 max=4" in l for l in batch))
        dues = [float(l.split()[0][4:]) for l in inter]
        self.assertEqual(dues, sorted(dues))
        for l in batch:
            n = int(re.search(r" n=(\d+)", l).group(1))
            self.assertTrue(240 <= n <= 976, l)


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        d = declared()
        self.assertEqual(set(d), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in d["workloads"]], WORKLOADS)
        for w in d["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in d["end_to_end"] + d["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in d["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in d["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in d["end_to_end"] + d["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in d["end_to_end"]))


class SmokeTest(unittest.TestCase):
    """Tiny runs of every workload: the correctness gate passes and the
    printed metrics are exactly the declared ones, with their units."""

    def check_metrics(self, result, section):
        want = {m["name"]: m["unit"] for m in declared()[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_untraced(self):
        for w in WORKLOADS:
            code, r, proc = Program.result(w, 5, 0)
            self.assertEqual(code, 0, proc.stdout[-2000:])
            self.assertEqual((r["correct"], r["failed"]), (True, 0), w)
            self.assertGreaterEqual(r["attempted"], 1)
            self.check_metrics(r, "end_to_end")
            for name, m in r["metrics"].items():
                self.assertGreater(m["value"], 0.0, (w, name))

    def test_traced(self):
        for w in WORKLOADS:
            code, r, proc = Program.result(w, 5, 1)
            self.assertEqual(code, 0, proc.stdout[-2000:])
            self.assertTrue(r["correct"], w)
            self.check_metrics(r, "per_layer")

    def test_failed_job_fails_the_gate(self):
        code, r, proc = Program.result("serve-mixed", 5, 0, "--poison")
        self.assertEqual(code, 1, proc.stdout[-2000:])
        self.assertEqual((r["correct"], r["failed"]), (False, 2))
        self.assertIn("1 job(s) rejected, failed or quarantined", proc.stdout)

    def test_integration_repeats_exactly(self):
        runs = [Program.result("integrate-n2k", 9, 1)[1]["metrics"]
                for _ in range(2)]
        for key in ("sim.grape_s", "sim.dma_s", "sim.steps",
                    "sim.blocksteps", "sim.state_hash"):
            self.assertEqual(runs[0][key]["value"], runs[1][key]["value"], key)
            self.assertGreater(runs[0][key]["value"], 0.0, key)


if __name__ == "__main__":
    unittest.main()
