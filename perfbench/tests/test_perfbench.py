"""Self-tests of the fleet benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. The first test to run builds the benchmark
packages, which takes a few minutes from a cold target directory
(``CARGO_TARGET_DIR``, default ``.bench_build``).

- A smoke-size run of every workload, end to end and traced, emits every
  metric BENCHMARK.json names, with its unit, and passes every check.
- A guarded environment variable makes the benchmark exit 2, naming it.
- In a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
- run.py's checks across processes fail a run whose processes' outcome
  digests differ, or one of whose processes crashed.
- The compare tool agrees on matching sets and flags a shifted one.
- The Rust self-tests pass: among them, each correctness check trips on a
  planted fault.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )


class SmokeRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        bench = bench_json()
        for w in bench["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    p = run_bench(
                        "--workload", w["name"], "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke",
                    )
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    result = json.loads(p.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in bench[kind]})
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class Refusals(unittest.TestCase):
    def test_a_guarded_variable_exits_2_naming_it(self):
        for var in run.GUARDED_ENV:
            with self.subTest(var=var):
                env = dict(os.environ, **{var: "1"})
                p = run_bench("--workload", "stream_25k", "--seed", "1", "--seconds", "1", "--smoke", env=env)
                self.assertEqual(p.returncode, 2)
                self.assertIn(var, p.stderr)
                self.assertEqual(p.stdout, "")

    def test_without_the_program_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            p = run_bench("--workload", "stream_25k", "--seed", "1", "--seconds", "1", cwd=tmp, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


class CrossProcessChecks(unittest.TestCase):
    """run.py's checks over its child processes, fed planted output."""

    @staticmethod
    def timed(digest="00aa", status=0, summary=True):
        lines = [
            {
                "rep": i, "warmup": i == 0, "seconds": 0.7 + i / 100, "accepted": 100,
                "expected": 100, "digest": digest, "cpu_s": 0.7, "minflt": 1, "nivcsw": 0,
                "steal_ticks": 0, "alu_s": 0.009, "mem_s": 0.014, "failures": [],
            }
            for i in range(3)
        ]
        if summary:
            lines.append({"workload": "stream_25k", "seed": 1, "reps": 3, "rss_before_kib": 4096, "hwm_kib": 550000})
        return status, lines, "" if summary else "thread 'main' panicked"

    @staticmethod
    def setup(digest="00bb"):
        return 0, [{"setup_s": 0.05, "digest": digest, "failures": []}], ""

    def check(self, setups, timed):
        problems, attempted, failed, metrics, _ = run.end_to_end(setups, timed)
        return problems, failed, run.result_line(problems, attempted, failed, metrics)

    def test_matching_processes_pass(self):
        problems, failed, result = self.check([self.setup()] * 2, [self.timed()] * 2)
        self.assertEqual((problems, failed), ([], 0))
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 8)

    def test_each_cross_process_fault_fails_the_run(self):
        setups, timed = [self.setup()] * 2, [self.timed()] * 2
        faults = {
            "timed digests differ": (setups, [self.timed("00aa"), self.timed("00cc")]),
            "set-up digests differ": ([self.setup("00bb"), self.setup("00dd")], timed),
            "a timed process crashed": (setups, [self.timed(), self.timed(status=101, summary=False)]),
            "a set-up process crashed": ([self.setup(), (134, [], "aborted")], timed),
            "a process exited 1 naming no check": (setups, [self.timed(), self.timed(status=1)]),
        }
        for what, (planted_setups, planted_timed) in faults.items():
            with self.subTest(what):
                problems, failed, result = self.check(planted_setups, planted_timed)
                self.assertGreater(failed, 0)
                self.assertFalse(result["correct"])
                self.assertTrue(problems)


class Compare(unittest.TestCase):
    @staticmethod
    def write_set(path, rps):
        os.makedirs(path)
        for i, value in enumerate(rps):
            metrics = {
                "reports_per_s": {"value": value, "unit": "reports/s"},
                "peak_rss_mb": {"value": 500.0, "unit": "MiB"},
                "setup_s": {"value": 0.06 + i * 1e-4, "unit": "s"},
                "delivered_share": {"value": 1.0, "unit": "fraction"},
            }
            with open(os.path.join(path, f"run{i}.out"), "w", encoding="utf-8") as f:
                f.write(json.dumps({"record": {"workload": "stream_25k", "trace": 0}}) + "\n")
                f.write(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}) + "\n")

    def compare(self, a, b):
        return subprocess.run(
            [sys.executable, os.path.join(BENCH, "compare.py"), a, b],
            capture_output=True, text=True, timeout=60,
        )

    def test_matching_sets_agree_and_a_shifted_set_does_not(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, same, slow = (os.path.join(tmp, n) for n in ("a", "same", "slow"))
            base = [4.0e6, 4.1e6, 4.2e6, 4.05e6, 4.15e6]
            self.write_set(a, base)
            self.write_set(same, [v * 1.01 for v in base])
            self.write_set(slow, [v * 0.5 for v in base])
            p = self.compare(a, same)
            self.assertEqual(p.returncode, 0, p.stdout)
            self.assertIn("| stream_25k | reports_per_s |", p.stdout)
            p = self.compare(a, slow)
            self.assertEqual(p.returncode, 1, p.stdout)
            self.assertIn("| NO |", p.stdout)


class RustSelfTests(unittest.TestCase):
    def test_rust_self_tests_pass(self):
        env = dict(os.environ, CARGO_TARGET_DIR=run.target_dir())
        for package in ("e2e", "trace"):
            with self.subTest(package=package):
                manifest = os.path.join(BENCH, package, "Cargo.toml")
                p = subprocess.run(
                    ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", manifest],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
                )
                self.assertEqual(p.returncode, 0, (p.stdout + p.stderr)[-3000:])


if __name__ == "__main__":
    unittest.main()
