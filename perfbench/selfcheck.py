"""The benchmark's own tests.  Run from the root of a thetalab checkout:

    python3 perfbench/selfcheck.py

They check that tracing does not change what thetalab outputs, that the
exact counts of the trace repeat from run to run (each run in a fresh
interpreter, so with a different hash seed), and that the benchmark refuses
to run outside a checkout.  The verify tests use a smaller suite than the
verify_all workload; every --trace 1 run of run.py also compares the traced
report digest of the full workload with the untraced one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
SMALL_VERIFY = ["verify", "--suite", "all", "--max-dim", "2", "--seed", "1"]


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if tracer.unit(k) in ("count", "bytes")}


class BenchCase(unittest.TestCase):
    def setUp(self):
        work_root = ROOT / ".perfbench_work"
        work_root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=work_root))
        self.addCleanup(shutil.rmtree, self.work, True)

    def bench(self, workload: str, seed: int = 2) -> run.Bench:
        bench = run.Bench(ROOT, self.work, workload, seed)
        bench.setup()
        return bench

    def traced_cli(self, bench: run.Bench, argv: list[str], i: int):
        path = bench._metrics_path(i)
        proc = bench.spawn(bench.child("cli", str(path), *argv))
        self.assertEqual(proc.code, 0, proc.stderr.decode())
        return proc, tracer.combine([json.loads(path.read_text())])


class TracingKeepsResults(BenchCase):
    def test_verify_report_digest_is_unchanged_by_tracing(self):
        bench = self.bench("verify_all")
        plain = bench.spawn(bench.thetalab(*SMALL_VERIFY))
        self.assertEqual(plain.code, 0, plain.stderr.decode())
        traced, metrics = self.traced_cli(bench, SMALL_VERIFY, 0)
        self.assertEqual(hashlib.sha256(traced.stdout).hexdigest(),
                         hashlib.sha256(plain.stdout).hexdigest())
        self.assertEqual(metrics["cli.output_bytes"],
                         len(plain.stdout) + len(plain.stderr))
        self.assertGreater(metrics["harness.verified_boundary.calls"], 0)

    def test_workload_outputs_are_unchanged_by_tracing(self):
        for workload in ("sd_local_h", "certify_large"):
            with self.subTest(workload=workload):
                bench = self.bench(workload)
                plain = bench.iterate(trace=False)
                traced = bench.iterate(trace=True)
                self.assertTrue(run.same_outputs(plain, traced))
                attempted, failed = bench.check([plain, traced], run.load_golden())
                self.assertEqual(failed, 0)


class CountsRepeat(BenchCase):
    def test_verify_counts_repeat_exactly(self):
        bench = self.bench("verify_all")
        _, first = self.traced_cli(bench, SMALL_VERIFY, 0)
        _, second = self.traced_cli(bench, SMALL_VERIFY, 1)
        self.assertEqual(_counts(first), _counts(second))
        self.assertGreater(first["homology.matrix_cells"], 0)

    def test_workload_counts_repeat_exactly(self):
        for workload in ("sd_local_h", "certify_large"):
            with self.subTest(workload=workload):
                bench = self.bench(workload)
                runs = []
                for _ in range(2):
                    traced = bench.iterate(trace=True)
                    runs.append(tracer.combine(
                        [json.loads(Path(t).read_text()) for t in traced["traces"]]))
                self.assertEqual(_counts(runs[0]), _counts(runs[1]))
                self.assertGreater(runs[0]["complexes.faces.calls"], 0)


class RefusesOutsideCheckout(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        work_root = ROOT / ".perfbench_work"
        work_root.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_root))
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sd_local_h",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
