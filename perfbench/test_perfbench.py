"""The benchmark's own tests: smoke-sized runs of every workload, the output
check catching a perturbed result, traced runs reproducing the untraced
scalars, and a checkout without the library failing without a result. Run
from the checkout root:

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the build helper next to this file)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, trace=0, seed=3):
    """Runs the smoke-sized benchmark; returns (exit code, stdout, result)."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--scale", "smoke", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, done.stdout, result


def setUpModule():
    global EXE
    EXE = run.build()


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out, result = bench(workload)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), END_TO_END)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_same_seed_same_outputs(self):
        quality = ["stretch", "hopcount", "hop_max", "continuity", "overhead"]
        _, _, first = bench("churn_stream", seed=5)
        _, _, second = bench("churn_stream", seed=5)
        for name in quality:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)


class Check(unittest.TestCase):
    def test_perturbed_output_fails_the_check(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, out, result = bench(workload, "--perturb", trace=trace)
                    self.assertEqual(code, 1, out)
                    self.assertFalse(result["correct"], out)
                    self.assertIn("CHECK FAILED", out)

    def test_without_library_sources_exits_nonzero_silently(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "flash_crowd",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_usage_errors_print_no_result(self):
        done = subprocess.run([str(EXE), "--workload", "nope", "--seed", "1"],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")


class Traced(unittest.TestCase):
    def test_traced_scalars_equal_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out, result = bench(workload, trace=1)
                self.assertEqual(code, 0, out)
                self.assertIn("traced scalars match untraced: yes", out)
                self.assertTrue(result["correct"], out)
                self.assertEqual(list(result["metrics"]), PER_LAYER)


if __name__ == "__main__":
    unittest.main()
