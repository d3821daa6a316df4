"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Takes about two minutes: it runs every workload twice traced and once
untraced at a seed other than the default.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads as wl

COUNT_QUANTITIES = ("calls", "sites", "edges", "rows", "steps", "rounds",
                    "families")


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tree_state(root: Path) -> dict:
    return {str(p.relative_to(root)): p.stat().st_mtime_ns
            for p in root.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts}


class BenchmarkDefinition(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(wl.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         run.PER_LAYER)

    def test_refuses_to_run_without_sources(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
                shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
                shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                                ignore=shutil.ignore_patterns("__pycache__"))
                proc = bench("--workload", "orbits", "--seconds", "1",
                             cwd=tmp)
        finally:
            run.WORK_DIR.rmdir()
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracerBindings(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        run.import_cli()
        import shapelab.environment as env
        import shapelab.schrodinger as sch
        from tracing import Tracer

        orig = env.counter_uniform
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(env.counter_uniform, orig)
            self.assertIs(sch.counter_uniform, env.counter_uniform)
            tracer._wrap("shapelab.shape", "no_such_function", "x.y",
                         tracer._span, None)
            tracer._wrap("shapelab.shape", "NoSuchClass.method", "x.z",
                         tracer._span, None)
        finally:
            tracer.uninstall()
        self.assertIs(env.counter_uniform, orig)
        self.assertIs(sch.counter_uniform, orig)
        self.assertEqual(tracer.missing[-2:],
                         ["shapelab.shape.no_such_function",
                          "shapelab.shape.NoSuchClass.method"])


class Runs(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (
                    result(bench("--workload", workload, "--seconds", "1",
                                 "--trace", "1")) for _ in range(2))
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(set(first["metrics"]),
                                 {name for name, _ in run.PER_LAYER})
                counts = [name for name in first["metrics"]
                          if name.rsplit(".", 1)[1] in COUNT_QUANTITIES]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)

    def test_other_seed_passes_and_leaves_tree_unchanged(self):
        before = tree_state(run.ROOT)
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "7",
                             "--seconds", "1")
                res = result(proc)
                report = json.loads(proc.stdout.splitlines()[-2])["report"]
                self.assertTrue(res["correct"], report["problems"])
                self.assertEqual(report["failed_ratio"], 0.0)
                self.assertEqual(set(res["metrics"]),
                                 {name for name, _ in run.END_TO_END})
        self.assertEqual(tree_state(run.ROOT), before)


if __name__ == "__main__":
    unittest.main(verbosity=2)
