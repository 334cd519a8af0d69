"""Self-tests of the benchmark itself (not of geomlie).

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
from geomlie import liealg  # noqa: E402
from workloads import FAILED, OK, WRONG, Op, emit_ops, lie_ops, verify_ops  # noqa: E402

warnings.filterwarnings("ignore", message="D3 coincides with A3")


def _raise():
    raise RuntimeError("boom")


class PassAccounting(unittest.TestCase):
    def test_raising_operation_counts_as_failed(self):
        ops = [Op("raises/A1", "A1", "op.x", _raise, lambda out: (OK, "")),
               Op("fine/A1", "A1", "op.x", lambda: 1, lambda out: (OK, "")),
               Op("wrong/A1", "A1", "op.x", lambda: 1, lambda out: (WRONG, "bad")),
               Op("bad-check/A1", "A1", "op.x", lambda: 1, lambda out: out["missing"])]
        records = bench.run_pass(ops)
        self.assertEqual([r.status for r in records], [FAILED, OK, WRONG, WRONG])
        self.assertIn("RuntimeError: boom", records[0].detail)
        attempted, failed, correct = bench.outcome_counts([(records, 0, 0)])
        self.assertEqual((attempted, failed, correct), (4, 3, False))

    def test_program_reported_failure_keeps_run_correct(self):
        records = bench.run_pass([Op("raises/A1", "A1", "op.x", _raise, lambda out: (OK, ""))])
        self.assertEqual(bench.outcome_counts([(records, 0, 0)]), (1, 1, True))


class Tracing(unittest.TestCase):
    def setUp(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_traced_outcomes_equal_untraced(self):
        # Small types, including both operations the seed code fails on.
        makers = [lambda: verify_ops(3, self.workdir, types=("A1", "A2", "A5", "D4")),
                  lambda: lie_ops(3, self.workdir, types=("A3", "D4")),
                  lambda: emit_ops(3, self.workdir, types=("A2", "D4", "E6"))]
        for make in makers:
            untraced = [(r.op, r.status) for r in bench.run_pass(make())]
            tracer = spans.Tracer()
            self.assertGreater(tracer.install(), 0)
            try:
                traced = [(r.op, r.status) for r in bench.run_pass(make(), tracer)]
            finally:
                tracer.uninstall()
            self.assertEqual(untraced, traced)
            roots = [s for s in tracer.spans if s[spans.PARENT] == -1]
            self.assertEqual(len(roots), len(traced))
            self.assertGreater(len(tracer.spans), len(roots))
        statuses = {r.op: r.status for r in bench.run_pass(makers[0]())}
        self.assertEqual(statuses["C16-scan-oracle/A1"], FAILED)
        self.assertEqual(statuses["C05-orbit-tables/A5"], FAILED)
        self.assertEqual(statuses["C07-lie-algebra-laws/A2"], OK)

    def test_uninstall_restores_every_binding(self):
        import geomlie
        from geomlie import verify
        originals = (liealg.build, geomlie.build, verify.short_vectors)
        tracer = spans.Tracer()
        tracer.install()
        self.assertTrue(hasattr(geomlie.build, spans.MARK))
        self.assertTrue(hasattr(verify.short_vectors, spans.MARK))
        self.assertIs(liealg.build, geomlie.build)
        tracer.uninstall()
        self.assertEqual((liealg.build, geomlie.build, verify.short_vectors), originals)
        self.assertEqual(spans.installed_wrappers(), 0)

    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]]
        agg = spans.aggregate(tracer.spans, 0, 3)
        self.assertEqual(agg["a"], [7.0, 10.0, 1])
        self.assertEqual(agg["b"], [2.0, 3.0, 1])
        self.assertEqual(agg["c"], [1.0, 1.0, 1])


class EndToEnd(unittest.TestCase):
    def _run(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=600)

    def test_untraced_process_installs_no_wrapper(self):
        done = self._run(ROOT, "--workload", "emit-ade17", "--seed", "5", "--seconds", "0",
                         "--trace", "0")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (True, 119, 0))
        record = json.loads((ROOT / ".perfbench/results/emit-ade17-seed5-trace0.json").read_text())
        self.assertEqual(record["detail"]["wrappers_installed"], 0)

    def test_fails_without_the_program(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = self._run(bare, "--workload", "verify-ade17", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)

    def test_benchmark_json_lists_every_reported_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(bench.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, bench.unit_of(n)) for n in bench.per_layer_names()])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
