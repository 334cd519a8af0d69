"""The benchmark's workloads: seeded operation lists and their output checks.

A workload is a list of operations that one client runs in order, each one
after the previous has finished (a closed loop with a single client).  The
seed fixes the order of the operations and the random bracket elements; the
program only ever sees the generated inputs.

Every operation carries a check that runs outside the timed region and
returns one of three statuses:

* ``ok``: the output passed the check;
* ``failed``: the program reported the failure itself (it raised, exited
  non-zero, or its own check said no);
* ``wrong``: the program claimed success but the output disagrees with an
  oracle that shares no code with the path it checks.

Both ``failed`` and ``wrong`` count as failed operations; only ``wrong``
makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from geomlie import cli, liealg, verify
from geomlie.lattice import cartan_matrix, make_type
from geomlie.rootsys import enumerate_roots

OK, FAILED, WRONG = "ok", "failed", "wrong"

ADE17 = tuple(verify.ALL_TYPE_LABELS)
# Ranks past the paper's range, where the dense |Phi|^2 tables, the |Phi|^3
# Jacobi sweep and the n^3 ad tensor dominate (|Phi| from 110 to 264).
LIE_TYPES = ("A10", "A12", "A14", "D10", "D12", "E8")
PROBES_PER_TYPE = 39
EMIT_COMMANDS = ("roots", "orbits", "wheel", "coxplane", "export-json", "export-csv", "lie")


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    name: str
    type_label: str
    span: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


# ---------------------------------------------------------------------------
# verify-ade17: every criterion once per type
# ---------------------------------------------------------------------------

def _check_criterion(out) -> tuple[str, str]:
    passed, expected, actual = out
    return (OK, "") if passed else (FAILED, f"expected {expected}; actual {actual}")


def verify_ops(seed: int, workdir: Path, types=ADE17) -> list[Op]:
    ops = [Op(f"{name}/{lab}", lab, f"verify.{name[:3]}", partial(func, [lab]), _check_criterion)
           for name, func in verify.CRITERIA for lab in types]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lie-scaling: build -> Jacobi -> Killing -> nondegeneracy, plus bracket probes
# ---------------------------------------------------------------------------

def killing_oracle(label: str) -> np.ndarray:
    """Closed-form Killing matrix (Kac, Infinite-Dimensional Lie Algebras, 7.8).

    K = 2h C on the Cartan block, K(g_a, g_-a) = -2h, and 0 everywhere else,
    in the basis D_1..D_k followed by the roots in lexicographic order.
    """
    t = make_type(label)
    k, h = t.rank, t.coxeter_number
    roots = enumerate_roots(t).roots
    position = {r: i for i, r in enumerate(roots)}
    K = np.zeros((k + len(roots),) * 2, dtype=np.int64)
    K[:k, :k] = 2 * h * cartan_matrix(t)
    for i, r in enumerate(roots):
        K[k + i, k + position[tuple(-x for x in r)]] = -2 * h
    return K


def _random_element(rng: random.Random, dim: int) -> liealg.AlgebraElement:
    terms = {rng.randrange(dim): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3))}
    return liealg.AlgebraElement.from_dict(terms)


def _lie_type_ops(label: str, rng: random.Random) -> list[Op]:
    t = make_type(label)
    dim = t.rank + t.root_count
    ctx: dict[str, object] = {}

    def build():
        ctx["L"] = liealg.build(t)
        return ctx["L"]

    def killing():
        ctx["K"] = liealg.killing_form(ctx["L"])
        return ctx["K"]

    def check_build(L):
        ok = L.dimension == dim
        return (OK, "") if ok else (WRONG, f"dimension {L.dimension} != {dim}")

    def check_jacobi(report):
        if not report.ok:
            return FAILED, f"{len(report.violations)} Jacobi violations"
        return (OK, "") if report.triples_checked > 0 else (WRONG, "no triples checked")

    def check_killing(K):
        ok = np.array_equal(np.asarray(K), killing_oracle(label))
        return (OK, "") if ok else (WRONG, "Killing form differs from the closed form")

    def check_nondegenerate(flag):
        return (OK, "") if flag is True else (FAILED, "Killing form reported degenerate")

    def check_antisymmetric(pair):
        xy, yx = pair
        return (OK, "") if (xy + yx).is_zero else (WRONG, f"[x,y] + [y,x] = {(xy + yx).terms}")

    def probe(x, y):
        L = ctx["L"]
        return liealg.bracket(L, x, y), liealg.bracket(L, y, x)

    rest = [Op(f"check_jacobi/{label}", label, "op.check_jacobi",
               lambda: liealg.check_jacobi(ctx["L"]), check_jacobi),
            Op(f"killing_form/{label}", label, "op.killing_form", killing, check_killing)]
    for p in range(PROBES_PER_TYPE):
        x, y = _random_element(rng, dim), _random_element(rng, dim)
        rest.append(Op(f"bracket_probe{p}/{label}", label, "op.bracket_probe",
                       partial(probe, x, y), check_antisymmetric))
    rng.shuffle(rest)
    at = next(i for i, op in enumerate(rest) if op.span == "op.killing_form")
    rest.insert(at + 1, Op(f"is_nondegenerate/{label}", label, "op.is_nondegenerate",
                           lambda: liealg.is_nondegenerate(ctx["K"]), check_nondegenerate))
    return [Op(f"build/{label}", label, "op.build", build, check_build)] + rest


def lie_ops(seed: int, workdir: Path, types=LIE_TYPES) -> list[Op]:
    rng = random.Random(seed)
    order = list(types)
    rng.shuffle(order)
    return [op for label in order for op in _lie_type_ops(label, rng)]


# ---------------------------------------------------------------------------
# emit-ade17: the CLI's emitting commands, in process
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` with its output captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _emit_op(command: str, label: str, workdir: Path) -> Op:
    t = make_type(label)
    dim = t.rank + t.root_count
    stem = str(workdir / label)
    argv, check = {
        "roots": (["roots", label, "--json"], lambda out: _check_roots(out, label, t.root_count)),
        "orbits": (["orbits", label, "--operator", "rhobar", "--json"],
                   lambda out: _check_orbits(out, t.root_count)),
        "wheel": (["wheel", label, "--classes", "--json"],
                  lambda out: _check_classes(out, t.root_count)),
        "coxplane": (["coxplane", label, "--svg", stem + ".svg", "--edges"],
                     lambda out: _check_svg(stem + ".svg")),
        "export-json": (["export", label, "-o", stem + ".json", "--format", "json"],
                        lambda out: _check_export_json(stem + ".json", dim)),
        "export-csv": (["export", label, "-o", stem + ".csv", "--format", "csv"],
                       lambda out: _check_export_csv(stem + ".csv", dim)),
        "lie": (["lie", label, "--check", "sl2"], lambda out: _check_lie(out, dim)),
    }[command]

    def checked(result):
        code, out = result
        return (FAILED, f"exit code {code}") if code != 0 else check(out)

    return Op(f"{command}/{label}", label, f"cli.{command.split('-')[0]}",
              partial(run_cli, argv), checked)


def _verdict(ok: bool, detail: str) -> tuple[str, str]:
    return (OK, "") if ok else (WRONG, detail)


def _check_roots(out: str, label: str, count: int):
    payload = json.loads(out)
    return _verdict(payload["type"] == label and len(payload["roots"]) == count,
                    f"{len(payload['roots'])} roots, closed form {count}")


def _check_orbits(out: str, count: int):
    payload = json.loads(out)
    members = sorted(i for orbit in payload["orbits"] for i in orbit)
    return _verdict(members == list(range(count)), "orbits do not partition the roots")


def _check_classes(out: str, count: int):
    payload = json.loads(out)
    return _verdict(len(payload["classes"]) == count,
                    f"{len(payload['classes'])} classes, closed form {count}")


def _check_svg(path: str):
    root = ET.parse(path).getroot()
    return _verdict(root.tag.endswith("svg"), f"root element {root.tag}")


def _check_export_json(path: str, dim: int):
    payload = liealg.load_structure_constants(path)
    return _verdict(payload["dimension"] == dim and len(payload["basis"]) == dim,
                    f"dimension {payload['dimension']}, closed form {dim}")


def _check_export_csv(path: str, dim: int):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    ok = rows[0] == ["i", "j", "terms"] and len(rows) > 1 and all(
        0 <= int(i) < int(j) < dim for i, j, _ in rows[1:])
    return _verdict(ok, "malformed structure-constant CSV")


def _check_lie(out: str, dim: int):
    return _verdict(f"dimension {dim}" in out and "sl2 triples: ok" in out,
                    f"unexpected output {out!r}")


def emit_ops(seed: int, workdir: Path, types=ADE17) -> list[Op]:
    ops = [_emit_op(command, label, workdir) for label in types for command in EMIT_COMMANDS]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[..., list[Op]]] = {
    "verify-ade17": verify_ops,
    "lie-scaling": lie_ops,
    "emit-ade17": emit_ops,
}
WORKLOAD_TYPES = {"verify-ade17": ADE17, "lie-scaling": LIE_TYPES, "emit-ade17": ADE17}
