"""Command-line surface: inspection, JSON/CSV/SVG emission, verification."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import textwrap

import numpy as np

from . import coxplane, liealg, verify, wheel
from .lattice import cartan_matrix, make_type, matrix_payload, seifert_matrix
from .rootsys import (classical_folding, enumerate_roots, fold, monodromy_matrix,
                      orbit_decomposition, rootsystem_payload)


def _paint(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if sys.stdout.isatty() else text


def _print_matrix(m) -> None:
    arr = np.asarray(m)
    width = max(len(str(int(x))) for x in arr.reshape(-1))
    for row in arr:
        print(" ".join(str(int(x)).rjust(width) for x in row))


def _cmd_info(args) -> int:
    t = make_type(args.type)
    print(f"type            {t.label}")
    print(f"family          {t.family}")
    print(f"rank            {t.rank}")
    print(f"coxeter number  {t.coxeter_number}")
    print(f"roots           {t.root_count}")
    print(f"lie dimension   {t.rank + t.root_count}")
    return 0


def _cmd_matrix(args) -> int:
    t = make_type(args.type)
    m = args.matrix(t, args)
    if args.json:
        print(json.dumps(matrix_payload(t, m)))
    else:
        _print_matrix(m)
    return 0


def _cmd_roots(args) -> int:
    t = make_type(args.type)
    rs = enumerate_roots(t)
    if args.count:
        print(len(rs))
    elif args.json:
        print(json.dumps(rootsystem_payload(rs)))
    else:
        for r in rs.roots:
            print(" ".join(str(x) for x in r))
    return 0


def _cmd_orbits(args) -> int:
    t = make_type(args.type)
    operator = {"monodromy": "monodromy", "rhobar": "coxeter_bar"}[args.operator]
    dec = orbit_decomposition(t, operator)
    if not dec.is_free:
        print(f"note: {dec.not_free_message()}", file=sys.stderr)
    if args.json:
        print(json.dumps(dec.to_json()))
    else:
        print(f"operator {dec.operator}  order {dec.operator_order}  "
              f"orbits {len(dec.orbits)}  free {dec.is_free}")
        for orbit in dec.orbits:
            roots = [dec.root_system.roots[i] for i in orbit]
            print("  " + "  ".join("(" + ",".join(map(str, r)) + ")" for r in roots))
    return 0


def _cmd_lie(args) -> int:
    t = make_type(args.type)
    L = liealg.build(t)
    print(f"dimension {L.dimension}")
    failed = False
    checks = ("antisym", "jacobi", "killing", "sl2", "model") if args.check == "all" \
        else (args.check,)
    for check in checks:
        if check == "antisym":
            bad = liealg.check_antisymmetry(L)
            ok = not bad
            label = "antisymmetry"
        elif check == "jacobi":
            report = liealg.check_jacobi(L)
            ok = report.ok
            label = f"jacobi ({report.triples_checked} cyclic triple classes)"
        elif check == "killing":
            ok = liealg.is_nondegenerate(liealg.killing_form(L))
            label = "killing form nondegenerate"
        elif check == "sl2":
            ok = not liealg.check_sl2(L)
            label = "sl2 triples"
        else:  # model
            modelled = liealg.has_slk_model(t)
            ok = not modelled or liealg.slk_model_check(L)
            label = "matrix model" if modelled else "matrix model (n/a)"
        failed |= not ok
        mark = _paint("ok", "32") if ok else _paint("FAIL", "31")
        print(f"  {label}: {mark}")
    return 1 if failed else 0


def _cmd_sl2(args) -> int:
    t = make_type(args.type)
    L = liealg.build(t)
    bad = liealg.check_sl2(L)
    if bad:
        print(f"error: {t}: {bad[0]} and {len(bad) - 1} more roots break sl2 laws", file=sys.stderr)
        return 1
    print(f"verified {len(L.root_system)} sl2 triples for {t.label}")
    return 0


def _cmd_export(args) -> int:
    t = make_type(args.type)
    L = liealg.build(t)
    try:
        liealg.export_structure_constants(L, args.output, fmt=args.format)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output}")
    return 0


def _cmd_wheel(args) -> int:
    t = make_type(args.type)
    if args.classes or args.json:
        payload = wheel.classes_payload(t)
        if args.json:
            print(json.dumps(payload))
        else:
            for cls in payload["classes"]:
                segs = " ".join(str(tuple(s)) for s in cls["segments"])
                print(f"({','.join(map(str, cls['root']))})  {segs}")
        return 0
    model = wheel.build_wheel(t)
    if model.vertices:
        print(f"{t.label} wheel: {len(model.punctures)} punctures, "
              f"center={'yes' if model.has_center else 'no'}")
        for v in model.vertices:
            # An on-axis coordinate is float noise of either sign; print it as +0.
            print(f"  v{v.label}: ({v.x:+.6f}, {v.y:+.6f})".replace("-0.000000", "+0.000000"))
    else:
        print(f"{t.label} wheel: {model.orbit_count} orbits x {model.orbit_steps} steps"
              f"{' (signed)' if model.signed_orbits else ''}, "
              f"rotation {wheel.rotation_angle(t)} pi")
    return 0


def _cmd_coxplane(args) -> int:
    t = make_type(args.type)
    if args.svg:
        svg = coxplane.render_svg(t, show_edges=args.edges, size=args.size)
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.svg}")
        return 0
    sizes = [len(group) for group in coxplane.point_clusters(t)]
    print(f"{t.label}: {len(sizes)} projection clusters over {sum(sizes)} roots")
    print(f"cluster sizes: {sorted(set(sizes))}")
    return 0


def _cmd_fold(args) -> int:
    spec = classical_folding(args.spec)
    folded = fold(spec)
    if args.json:
        print(json.dumps({"type": spec.target_name,
                          "matrix": [[int(x) for x in row] for row in folded]}))
    else:
        print(f"{spec.source.label} -> {spec.target_name}")
        _print_matrix(folded)
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_verify(args.types or None)
    if args.json:
        for r in results:
            print(json.dumps(dataclasses.asdict(r)))
        return 0 if all(r.ok for r in results) else 1
    by_criterion: dict[str, list[verify.CheckResult]] = {}
    for r in results:
        by_criterion.setdefault(r.name, []).append(r)
    failed = 0
    for name, records in by_criterion.items():
        bad = [r for r in records if not r.ok]
        mark = _paint("FAIL", "31") if bad else _paint("PASS", "32")
        print(f"{name:28s} {mark}  ({sum(r.millis for r in records):.0f} ms)")
        failed += bool(bad)
        for r in bad:
            print(f"    {r.label} expected: {r.expected}")
            print(f"    {r.label} actual:   {r.actual}")
            if r.traceback:
                print(textwrap.indent(r.traceback.rstrip(), "      "))
    print(f"{len(by_criterion) - failed}/{len(by_criterion)} criteria passed")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves the parser unchanged and returns a fresh namespace, so one
    command's options never reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="geomlie",
        description="Exact ADE root systems and Lie algebras from Seifert-form data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("info", _cmd_info, help="print the derived constants of a type")
    p.add_argument("type")

    p = add("cartan", _cmd_matrix, help="print the Cartan matrix B + B^t")
    p.set_defaults(matrix=lambda t, args: cartan_matrix(t))
    p.add_argument("type")
    p.add_argument("--json", action="store_true")

    p = add("seifert", _cmd_matrix, help="print the Seifert matrix B")
    p.set_defaults(matrix=lambda t, args: seifert_matrix(t))
    p.add_argument("type")
    p.add_argument("--json", action="store_true")

    p = add("roots", _cmd_roots, help="enumerate the root system")
    p.add_argument("type")
    p.add_argument("--json", action="store_true")
    p.add_argument("--count", action="store_true")

    p = add("monodromy", _cmd_matrix, help="print the monodromy matrix")
    p.set_defaults(matrix=lambda t, args: monodromy_matrix(t, basis=args.basis))
    p.add_argument("type")
    p.add_argument("--basis", choices=("simple", "projective"), default="simple")
    p.add_argument("--json", action="store_true")

    p = add("orbits", _cmd_orbits, help="orbit decomposition of the root system")
    p.add_argument("type")
    p.add_argument("--operator", choices=("monodromy", "rhobar"), default="monodromy")
    p.add_argument("--json", action="store_true")

    p = add("lie", _cmd_lie, help="build the Lie algebra and run checks")
    p.add_argument("type")
    p.add_argument("--check", choices=("all", "antisym", "jacobi", "killing", "sl2", "model"),
                   default="all")

    p = add("sl2", _cmd_sl2, help="verify the sl2 triple of every root")
    p.add_argument("type")

    p = add("export", _cmd_export, help="export structure constants")
    p.add_argument("type")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("wheel", _cmd_wheel, help="wheel model and segment classes")
    p.add_argument("type")
    p.add_argument("--classes", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("coxplane", _cmd_coxplane, help="project roots to the rotation plane")
    p.add_argument("type")
    p.add_argument("--svg", metavar="FILE")
    p.add_argument("--edges", action="store_true")
    p.add_argument("--size", type=int, default=600)

    p = add("fold", _cmd_fold, help="fold a simply-laced type (e.g. E6:F4)")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")

    p = add("verify", _cmd_verify, help="run the acceptance suite")
    p.add_argument("types", nargs="*")
    p.add_argument("--json", action="store_true", help="one JSON object per check result")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): send the rest, including
        # the flush at shutdown, to devnull instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
