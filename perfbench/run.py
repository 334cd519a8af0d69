"""Benchmark of record for geomlie.

Run from the repository root:

    python3 perfbench/run.py --workload verify-ade17 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each workload is seeded and closed-loop: one client sends the next operation
only after the previous one has finished.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` is the separate traced run
that reports the per-layer metrics and the tracing overhead.  ``--workload
all`` runs every workload in its own process and prints every metric by
name and unit.  The last line of standard output is the result as one JSON
object; the full record, with provenance and the failing operations by
name, is written to ``.perfbench/results/``.  Self-tests:
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import os

# killing_form contracts through a float64 matmul: pin BLAS to one thread
# before numpy is imported, here and in every process started from here.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _print_metrics(result: dict) -> None:
    absent = result["detail"].get("absent", {})
    for name, m in result["metrics"].items():
        note = f"  (absent: {absent[name]})" if name in absent else ""
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}{note}")


def run_one(bench, workload: str, seed: int, seconds: float, trace: int) -> int:
    # The D3 rank-floor notice is the user's concern, not the benchmark's.
    warnings.filterwarnings("ignore", message="D3 coincides with A3")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if trace:
            result = bench.traced_run(workload, seed, seconds, workdir,
                                      results / f"{stem}.spans.csv.gz")
        else:
            result = bench.untraced_run(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"provenance": bench.provenance(workload, seed, seconds, trace), **result}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    detail = result["detail"]
    print(f"{workload}  seed {seed}  trace {trace}  commit {record['provenance']['commit']}")
    if trace:
        print(f"  traced passes {detail['traced_passes']}, untraced passes "
              f"{detail['baseline_passes']}, spans {detail['spans']}")
    else:
        print(f"  passes {detail['passes']} x {detail['ops_per_pass']} operations; "
              f"failed_share {detail['failed_share']} ({detail['failed_per_pass']} per pass)")
    for failure in result["detail"]["failures"]:
        print(f"  failed: {failure['op']} [{failure['status']}] {failure['detail'][:120]}")
    _print_metrics(result)
    print(f"  record: {(results / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(workloads, seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    combined = {}
    for workload in workloads:
        done = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed",
                               str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        combined[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geomlie" / "__init__.py").is_file():
        print(f"perfbench: no geomlie sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # imported late: numpy must see the BLAS pin above

    module = sys.modules["geomlie"]
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: geomlie imported from {module.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(bench.WORKLOADS), args.seed, args.seconds, args.trace)
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(bench, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
