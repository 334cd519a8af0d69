"""Measurement passes, the traced run, the memory pass and the metrics.

An untraced run repeats whole passes of a workload with caches warm and
reports the end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters that import geomlie
  and fill the root-system cache for the workload's types;
* ``wall_s``: median over the run's passes of the time of one pass;
* ``type_iqm_ms`` and ``type_max_s``: the typical and the largest time one
  type spends in a pass (each type's time a median over passes).  The
  typical time is the mean over the middle half of the types, because the
  single median type is one mid-size type whose time swings most with the
  load of a shared machine (run-to-run spread 0.29 of the median on a
  2-CPU VM, against 0.11 for this mean);
* ``peak_rss_mb``: ``ru_maxrss`` of the process;
* ``ok_share``: operations that passed their check over operations
  attempted, that is 1 - failed_share, which unlike failed_share is never 0.

A traced run is a separate process: it
records spans around every public function of geomlie (see ``spans``),
reports per-layer self times and call counts, and then, with the spans
removed, runs a ``tracemalloc`` pass for per-call peak memory.  Neither
spans nor ``tracemalloc`` are ever active while an end-to-end number is
taken.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geomlie import liealg, rootsys
from geomlie.lattice import make_type

import spans
from workloads import FAILED, OK, WORKLOAD_TYPES, WORKLOADS, WRONG, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One fresh start is about 0.2 s and noisy, so set-up is the median of several.
SETUP_STARTS = 9
SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); import geomlie; "
                 "from geomlie.rootsys import enumerate_roots; "
                 "[enumerate_roots(t) for t in sys.argv[2:]]")
MB = 1e6

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("type_iqm_ms", "ms"), ("type_max_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_share", "ratio"),
)

# Span name -> quantities read from the traced passes (median per pass).
SPAN_QUANTITIES = (
    ("liealg.check_jacobi", ("self_s", "calls")),
    ("liealg.killing_form", ("self_s",)),
    ("liealg.is_nondegenerate", ("self_s",)),
    ("liealg.build", ("self_s", "calls")),
    ("liealg.bracket", ("self_s", "calls")),
    ("liealg.sl2_triple", ("self_s", "calls")),
    ("liealg.slk_model_check", ("self_s",)),
    ("liealg.n_sign", ("self_s", "calls")),
    ("liealg.structure_constants_payload", ("self_s",)),
    ("liealg.export_structure_constants", ("self_s",)),
    ("rootsys.enumerate_roots", ("calls",)),
    ("rootsys.orbit_decomposition", ("self_s",)),
    ("_exact.short_vectors", ("self_s",)),
    ("wheel.d_geometric_sign", ("self_s", "calls")),
    ("wheel.enumerate_classes", ("self_s",)),
    ("wheel.classes_payload", ("self_s",)),
    ("coxplane.plane_basis", ("self_s",)),
    ("coxplane.project_all", ("self_s",)),
    ("coxplane.render_svg", ("self_s",)),
    ("lattice.cartan_matrix", ("calls",)),
    ("lattice.seifert_matrix", ("calls",)),
)
MEMORY_FUNCS = ("build", "check_jacobi", "killing_form")
CRITERIA_TAGS = tuple(f"C{i:02d}" for i in range(1, 17))
CLI_COMMANDS = ("roots", "orbits", "wheel", "coxplane", "export", "lie")
UNITS = {"self_s": "s", "s": "s", "calls": "count", "failed": "count", "triples": "count",
         "peak_mb": "MB", "table_mb": "MB", "summable_share": "ratio", "bytes": "B",
         "overhead_s": "s"}


def _metric_name(span: str, quantity: str) -> str:
    return f"{span.lstrip('_')}.{quantity}"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [_metric_name(s, q) for s, qs in SPAN_QUANTITIES for q in qs]
    names.insert(names.index("rootsys.enumerate_roots.calls"), "rootsys.enumerate_roots.self_s")
    names += [f"liealg.{f}.peak_mb" for f in MEMORY_FUNCS]
    names += ["liealg.check_jacobi.triples", "liealg.build.table_mb", "liealg.build.summable_share",
              "liealg.export_structure_constants.bytes", "coxplane.render_svg.bytes"]
    names += [f"verify.{tag}.s" for tag in CRITERIA_TAGS]
    names += [f"verify.{tag}.failed" for tag in CRITERIA_TAGS]
    names += [f"cli.{c}.s" for c in CLI_COMMANDS]
    names.append("trace.overhead_s")
    return names


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


@dataclass
class Record:
    op: str
    type_label: str
    span: str
    seconds: float
    status: str
    detail: str


def run_pass(ops: list[Op], tracer: spans.Tracer | None = None) -> list[Record]:
    """Run the operations in order; each check runs after its timer stops."""
    records = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = op.run() if tracer is None else tracer.span(op.span, op.run)
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is not None:
            status, detail = FAILED, error
        else:
            if tracer is not None:
                tracer.recording = False  # checks are the benchmark's work, not the program's
            try:
                status, detail = op.check(out)
            except Exception as exc:  # output too malformed to check
                status, detail = WRONG, f"check raised {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.recording = True
        del out
        records.append(Record(op.name, op.type_label, op.span, seconds, status, detail))
    return records


def timed_passes(make_ops, seconds: float, tracer: spans.Tracer | None = None,
                 after_pass=None):
    """Whole passes until ``seconds`` have elapsed (at least one).

    ``after_pass`` is called between passes, outside any timing, with the
    share of ``seconds`` used so far.  Returns (records, first span, end
    span) per pass.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        ops = make_ops()
        lo = len(tracer.spans) if tracer else 0
        records = run_pass(ops, tracer)
        passes.append((records, lo, len(tracer.spans) if tracer else 0))
        if after_pass is not None:
            after_pass((time.perf_counter() - start) / seconds if seconds else 1.0)
    return passes


def fresh_start(types) -> float:
    """Wall time of a fresh interpreter that imports geomlie and fills the root cache."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), *types],
                   cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def pass_wall(records: list[Record]) -> float:
    return sum(r.seconds for r in records)


def per_type_seconds(passes) -> dict[str, float]:
    """Median over passes of the time each type spends in a pass."""
    labels = list(dict.fromkeys(r.type_label for r in passes[0][0]))
    return {lab: statistics.median(sum(r.seconds for r in recs if r.type_label == lab)
                                   for recs, _, _ in passes) for lab in labels}


def interquartile_mean(values) -> float:
    """Mean of the middle half of the sorted values."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def failures(passes) -> list[dict]:
    """Distinct failed operations, each with its status, detail and count."""
    out: dict[str, dict] = {}
    for recs, _, _ in passes:
        for r in recs:
            if r.status != OK:
                entry = out.setdefault(r.op, {"op": r.op, "status": r.status,
                                              "detail": r.detail[:300], "count": 0})
                entry["count"] += 1
    return list(out.values())


def outcome_counts(passes) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct means no operation was wrong."""
    records = [r for recs, _, _ in passes for r in recs]
    return (len(records), sum(r.status != OK for r in records),
            not any(r.status == WRONG for r in records))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "geomlie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "commit": _git_commit(), "source_sha256": _source_sha256(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------

def untraced_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    types = WORKLOAD_TYPES[workload]
    setup_times: list[float] = []

    def sample_setup(share: float) -> None:
        # Fresh starts are spread over the run so that they do not all fall
        # into one burst of load from other tenants.
        while len(setup_times) < min(SETUP_STARTS, SETUP_STARTS * share):
            setup_times.append(fresh_start(types))

    sample_setup(1 / SETUP_STARTS)
    for label in types:
        rootsys.enumerate_roots(label)
    passes = timed_passes(lambda: WORKLOADS[workload](seed, workdir), seconds,
                          after_pass=sample_setup)
    sample_setup(1.0)
    wrappers = spans.installed_wrappers()
    if wrappers:
        raise RuntimeError(f"{wrappers} span wrappers found in an untraced run")
    walls = [pass_wall(recs) for recs, _, _ in passes]
    per_type = per_type_seconds(passes)
    slowest = max(per_type, key=per_type.get)
    attempted, failed, correct = outcome_counts(passes)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "type_iqm_ms": interquartile_mean(per_type.values()) * 1000,
        "type_max_s": per_type[slowest],
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": (attempted - failed) / attempted,
    }
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "detail": {
            "passes": len(passes), "ops_per_pass": len(passes[0][0]),
            "failed_share": f"{failed}/{attempted}",
            "failed_per_pass": f"{failed / len(passes):g}/{len(passes[0][0])}",
            "failures": failures(passes), "slowest_type": slowest,
            "wrappers_installed": wrappers, "setup_times_s": setup_times,
            "pass_walls_s": walls, "type_s": per_type,
            "type_p50_ms": statistics.median(per_type.values()) * 1000,
        },
    }


# ---------------------------------------------------------------------------
# Traced run: spans, then a separate tracemalloc pass
# ---------------------------------------------------------------------------

def _traced_peak(fn, *args):
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn(*args)
    return out, (tracemalloc.get_traced_memory()[1] - before) / MB


def _table_stats(L) -> tuple[int, int, int] | None:
    """(computed table bytes, summable pairs, |Phi|^2) of the dense tables, if present."""
    arrays = [getattr(L, a, None) for a in ("hg", "neg", "root_sum", "root_sign", "pair")]
    if not all(isinstance(a, np.ndarray) for a in arrays):
        return None
    root_sum = arrays[2]
    return sum(a.nbytes for a in arrays), int(np.count_nonzero(root_sum >= 0)), root_sum.size


def memory_pass(types, funcs) -> dict:
    """Per-call tracemalloc peak of ``funcs`` (a subset of MEMORY_FUNCS) per type."""
    peaks = {f: {} for f in funcs}
    triples, tables = {}, {}
    tracemalloc.start()
    try:
        for label in types:
            t = make_type(label)
            L, peak = _traced_peak(liealg.build, t)
            if "build" in peaks:
                peaks["build"][label] = peak
            if "check_jacobi" in peaks:
                report, peaks["check_jacobi"][label] = _traced_peak(liealg.check_jacobi, L)
                triples[label] = report.triples_checked
            if "killing_form" in peaks:
                _, peaks["killing_form"][label] = _traced_peak(liealg.killing_form, L)
            tables[label] = _table_stats(L)
            del L
    finally:
        tracemalloc.stop()
    return {"peak_mb": peaks, "triples": triples, "tables": tables}


def traced_run(workload: str, seed: int, seconds: float, workdir: Path, span_file: Path) -> dict:
    types = WORKLOAD_TYPES[workload]
    make_ops = lambda: WORKLOADS[workload](seed, workdir)  # noqa: E731
    tracer = spans.Tracer()

    # Cold root-system fill, traced: this process has not filled the cache yet.
    tracer.install()
    for label in types:
        rootsys.enumerate_roots(label)
    cold = spans.aggregate(tracer.spans, 0, len(tracer.spans))
    tracer.uninstall()

    # Untraced and traced passes alternate, so that a drift in the machine's
    # speed does not show up as tracing overhead.
    baseline, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        baseline += timed_passes(make_ops, 0)
        tracer.install()
        try:
            traced += timed_passes(make_ops, 0, tracer)
        finally:
            tracer.uninstall()
    if spans.installed_wrappers():
        raise RuntimeError("span wrappers left installed after the traced passes")

    aggs = [spans.aggregate(tracer.spans, lo, hi) for _, lo, hi in traced]

    def per_pass(span: str, field: int) -> float:
        # Counts (field 2) stay whole numbers: median_low picks one pass's count.
        median = statistics.median_low if field == 2 else statistics.median
        return median(a.get(span, (0.0, 0.0, 0))[field] for a in aggs)

    values, absent = {}, {}
    for span, quantities in SPAN_QUANTITIES:
        for q in quantities:
            values[_metric_name(span, q)] = per_pass(span, 0 if q == "self_s" else 2)
            if not per_pass(span, 2):
                absent[_metric_name(span, q)] = f"{span} is not called on {workload}"
    values["rootsys.enumerate_roots.self_s"] = cold.get("rootsys.enumerate_roots", [0.0])[0]

    called = [f for f in MEMORY_FUNCS if per_pass(f"liealg.{f}", 2)]
    memory = memory_pass(types, called)
    for f in MEMORY_FUNCS:
        by_type = memory["peak_mb"].get(f, {})
        values[f"liealg.{f}.peak_mb"] = max(by_type.values(), default=0.0)
        if not by_type:
            absent[f"liealg.{f}.peak_mb"] = f"liealg.{f} is not called on {workload}"
    values["liealg.check_jacobi.triples"] = sum(memory["triples"].values())
    if not memory["triples"]:
        absent["liealg.check_jacobi.triples"] = f"liealg.check_jacobi is not called on {workload}"
    tables = [s for s in memory["tables"].values() if s is not None]
    values["liealg.build.table_mb"] = max((s[0] for s in tables), default=0) / MB
    values["liealg.build.summable_share"] = (sum(s[1] for s in tables) / sum(s[2] for s in tables)
                                             if tables else 0.0)
    if not tables:
        for name in ("liealg.build.table_mb", "liealg.build.summable_share"):
            absent[name] = "LieAlgebra has no dense hg/neg/root_sum/root_sign/pair tables"

    # Every pass rewrites the same output files, so their sizes are bytes per pass.
    sizes: dict[str, int] = {}
    for path in workdir.iterdir():
        sizes[path.suffix] = sizes.get(path.suffix, 0) + path.stat().st_size
    for name, suffixes in (("liealg.export_structure_constants.bytes", (".json", ".csv")),
                           ("coxplane.render_svg.bytes", (".svg",))):
        values[name] = sum(sizes.get(suffix, 0) for suffix in suffixes)
        if not values[name]:
            absent[name] = f"no {'/'.join(suffixes)} output on {workload}"

    for tag in CRITERIA_TAGS:
        values[f"verify.{tag}.s"] = per_pass(f"verify.{tag}", 1)
        values[f"verify.{tag}.failed"] = statistics.median_low(
            sum(r.status != OK for r in recs if r.span == f"verify.{tag}") for recs, _, _ in traced)
        if not per_pass(f"verify.{tag}", 2):
            for q in ("s", "failed"):
                absent[f"verify.{tag}.{q}"] = f"verify criteria are not run on {workload}"
    for command in CLI_COMMANDS:
        values[f"cli.{command}.s"] = per_pass(f"cli.{command}", 1)
        if not per_pass(f"cli.{command}", 2):
            absent[f"cli.{command}.s"] = f"the {command} command is not run on {workload}"

    traced_wall = statistics.median(pass_wall(recs) for recs, _, _ in traced)
    baseline_wall = statistics.median(pass_wall(recs) for recs, _, _ in baseline)
    values["trace.overhead_s"] = traced_wall - baseline_wall

    # Tracing must not change what any operation does.
    outcome = {r.op: r.status for r in baseline[0][0]}
    mismatched = sorted({r.op for recs, _, _ in traced for r in recs if outcome.get(r.op) != r.status})
    attempted, failed, correct = outcome_counts(baseline + traced)
    tracer.write(span_file)
    return {
        "correct": correct and not mismatched, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)}
                    for name in per_layer_names()},
        "detail": {
            "absent": absent, "outcome_mismatch_traced_vs_untraced": mismatched,
            "traced_passes": len(traced), "baseline_passes": len(baseline),
            "traced_wall_s": traced_wall, "untraced_wall_s": baseline_wall,
            "spans": len(tracer.spans), "span_file": str(span_file.relative_to(ROOT)),
            "memory_peak_mb_by_type": memory["peak_mb"],
            "jacobi_triples_by_type": memory["triples"],
            "tables_by_type": memory["tables"],
            "failures": failures(baseline + traced),
        },
    }

