"""Command-line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from geomlie import cli, liealg, verify
from geomlie.cli import main
from geomlie.verify import PRINTED_MONODROMY


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys):
    code, out, _ = run(capsys, "info", "E8")
    assert code == 0
    assert "coxeter number  30" in out
    assert "roots           240" in out


def test_info_case_insensitive(capsys):
    code, out, _ = run(capsys, "info", "e6")
    assert code == 0
    assert "E6" in out


def test_unknown_type_exit_2(capsys):
    code, _, err = run(capsys, "info", "D2")
    assert code == 2
    assert "error" in err


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_roots_count(capsys):
    code, out, _ = run(capsys, "roots", "E6", "--count")
    assert code == 0
    assert out.strip() == "72"


def test_roots_json_schema(capsys):
    code, out, _ = run(capsys, "roots", "A2", "--json")
    payload = json.loads(out)
    assert set(payload) == {"type", "cartan", "roots"}
    assert len(payload["roots"]) == 6


def test_cartan_and_seifert_json(capsys):
    code, out, _ = run(capsys, "cartan", "A2", "--json")
    assert json.loads(out) == {"type": "A2", "matrix": [[2, -1], [-1, 2]]}
    code, out, _ = run(capsys, "seifert", "A2", "--json")
    assert json.loads(out) == {"type": "A2", "matrix": [[1, -1], [0, 1]]}


def test_monodromy_projective_json(capsys):
    code, out, _ = run(capsys, "monodromy", "E6", "--basis", "projective", "--json")
    payload = json.loads(out)
    assert payload["matrix"] == [list(r) for r in PRINTED_MONODROMY["E6"]]


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "E7", "--operator", "rhobar", "--json")
    payload = json.loads(out)
    assert payload["order"] == 18
    assert len(payload["orbits"]) == 7


def test_orbits_a5_not_free_still_prints(capsys):
    code, out, err = run(capsys, "orbits", "A5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(len(o) for o in payload["orbits"]) == [3, 3, 6, 6, 6, 6]
    assert "not free" in err


def test_orbits_decomposes_once(capsys, monkeypatch):
    calls = []
    real = cli.orbit_decomposition
    monkeypatch.setattr(cli, "orbit_decomposition",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    code, _, err = run(capsys, "orbits", "A5")
    assert code == 0
    assert len(calls) == 1
    assert err == "note: A5: monodromy action is not free (orbit sizes [3, 6], order 6)\n"


def test_lie_check_all(capsys):
    code, out, _ = run(capsys, "lie", "A2", "--check", "all")
    assert code == 0
    assert "dimension 8" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("corrupt", [False, True], ids=["E8", "E8-one-row-negated"])
def test_lie_check_all_decides_antisymmetry_once(corrupt, capsys, monkeypatch, with_coefficients):
    # The antisymmetry line reads the Jacobi report's decision, so the table
    # is checked for antisymmetry once, and a lone negated row fails both lines.
    real_build, real_check = liealg.build, liealg.check_antisymmetry

    def corrupted(t):
        L = real_build(t)
        c = L.table.c.copy()
        c[0] = -c[0]
        return with_coefficients(L, c)

    calls = []
    if corrupt:
        monkeypatch.setattr(liealg, "build", corrupted)
    monkeypatch.setattr(liealg, "check_antisymmetry",
                        lambda L: calls.append(L.lie_type.label) or real_check(L))
    code, out, _ = run(capsys, "lie", "E8", "--check", "all")
    assert calls == ["E8"]
    if corrupt:
        assert code == 1
        assert out.splitlines()[:3] == ["dimension 248", "  antisymmetry: FAIL",
                                        "  jacobi (0 generator triples): FAIL"]
    else:
        assert code == 0
        assert out == ("dimension 248\n  antisymmetry: ok\n  jacobi (2816 generator triples): ok\n"
                       "  killing form nondegenerate: ok\n  sl2 triples: ok\n"
                       "  matrix model (n/a): ok\n")


def test_lie_refuses_oversized_type(capsys):
    code, out, err = run(capsys, "lie", "A32", "--check", "jacobi")
    assert code == 2
    assert "A32 is too large" in err
    assert out == ""


@pytest.mark.parametrize("label", ["A40", "A128"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_verify_refuses_oversized_type_before_any_criterion(label, json_flag, capsys, monkeypatch):
    # The Lie criteria cannot run past MAX_DIMENSION, so verify refuses the
    # type up front with one line, from the closed-form bound build uses.
    calls = []
    monkeypatch.setattr(verify, "_evaluate", lambda *args: calls.append(args))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "A2", label, *json_flag)
    assert time.perf_counter() - start < 1.0
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"error: {label} is too large: ") and err.count("\n") == 1
    assert f"over MAX_DIMENSION = {liealg.MAX_DIMENSION:,}" in err


def test_roots_refuses_oversized_type(capsys):
    code, out, err = run(capsys, "roots", "A2000", "--count")
    assert code == 2
    assert "A2000" in err and "bytes" in err
    assert out == ""


# Both print well over a pipe buffer (64 KiB), so the writer is still
# blocked on the pipe when the reader closes it.
@pytest.mark.parametrize("argv", [("roots", "A40"), ("wheel", "A40", "--classes")], ids=" ".join)
def test_closed_pipe_is_quiet(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "geomlie.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def _workflow_run_block(step: str) -> str:
    """The ``run: |`` block of the tier-1 workflow step whose name starts with ``step``.

    Read by indentation, with no YAML parser: the block is every line after
    ``run: |`` indented deeper than that key, dedented by its first line.
    """
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    named = next(n for n, line in enumerate(lines) if line.lstrip().startswith(f"- name: {step}"))
    key = lines[named + 1]
    assert key.strip() == "run: |", key
    depth = len(key) - len(key.lstrip())
    block = []
    for line in lines[named + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= depth:
            break
        block.append(line)
    indent = len(block[0]) - len(block[0].lstrip())
    return "".join(line[indent:] + "\n" for line in block)


def test_workflow_command_line_step_passes(tmp_path):
    # The pinned lines of the CI step: verify's record counts, every exact
    # lie --check line of E8, A31 and D22, the D20 Jacobi line, and the exit-2
    # refusals of verify A40 and lie A32.  It runs in a temporary directory
    # whose src is the package's, so its outputs stay out of the tree, with
    # python this interpreter.
    (tmp_path / "step.sh").write_text(_workflow_run_block("Verify suite"), encoding="utf-8")
    (tmp_path / "src").symlink_to(Path(cli.__file__).resolve().parents[1])
    shim = tmp_path / "bin" / "python"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run(["bash", "-e", "step.sh"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, (done.stdout[-2000:], done.stderr[-2000:])


def test_sl2(capsys):
    code, out, _ = run(capsys, "sl2", "A3")
    assert code == 0
    assert "12 sl2 triples" in out


def test_sl2_names_a_broken_root(capsys, monkeypatch, with_coefficients):
    # [g_a, g_{-a}] = -D_1 for a = (1, 0, 0) turned into +D_1: only a breaks a law.
    real = liealg.build

    def corrupted(t):
        L = real(t)
        T = L.table
        a, b = (L.rank + L.root_system.index[r] for r in ((1, 0, 0), (-1, 0, 0)))
        c = T.c.copy()
        c[(T.i == a) & (T.j == b)] *= -1
        return with_coefficients(L, c)

    monkeypatch.setattr(liealg, "build", corrupted)
    code, out, err = run(capsys, "sl2", "A3")
    assert (code, out) == (1, "")
    assert err == "error: A3: (1, 0, 0) and 0 more roots break sl2 laws\n"
    code, out, _ = run(capsys, "lie", "A3", "--check", "sl2")
    assert (code, out) == (1, "dimension 15\n  sl2 triples: FAIL\n")


def test_export_and_reload(tmp_path, capsys):
    target = tmp_path / "a2.json"
    code, out, _ = run(capsys, "export", "A2", "-o", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["dimension"] == 8


def test_export_io_failure(tmp_path, capsys):
    code, _, err = run(capsys, "export", "A2", "-o", str(tmp_path / "nope" / "a2.json"))
    assert code == 1
    assert "error" in err


@pytest.mark.usefixtures("quiet_d3_warning")
def test_wheel_prints_no_negative_zero(capsys):
    for label in [f"A{k}" for k in range(1, 17)] + [f"D{k}" for k in range(3, 17)]:
        code, out, _ = run(capsys, "wheel", label)
        assert code == 0 and "-0.000000" not in out, label


def test_wheel_classes_json(capsys):
    code, out, _ = run(capsys, "wheel", "D4", "--classes", "--json")
    payload = json.loads(out)
    assert payload["type"] == "D4"
    assert len(payload["classes"]) == 24


def test_coxplane_svg(tmp_path, capsys):
    target = tmp_path / "e6.svg"
    code, out, _ = run(capsys, "coxplane", "E6", "--svg", str(target))
    assert code == 0
    assert target.read_text().startswith("<svg")


def test_coxplane_report(capsys):
    code, out, _ = run(capsys, "coxplane", "E7")
    assert code == 0
    assert "126 projection clusters over 126 roots" in out


def test_fold(capsys):
    code, out, _ = run(capsys, "fold", "E6:F4", "--json")
    payload = json.loads(out)
    assert payload["type"] == "F4"
    assert sum(row.count(-2) for row in payload["matrix"]) == 1


def test_fold_bad_spec(capsys):
    code, _, err = run(capsys, "fold", "E6:Z9")
    assert code == 2


@pytest.mark.parametrize("spec", ["A5:C3x", "E6:F4:G2", "D5:B04"])
def test_fold_malformed_target(capsys, spec):
    # The target must be one letter and a rank without a leading zero; no raw
    # int() message leaks and no half-parsed target is accepted.
    code, out, err = run(capsys, "fold", spec)
    assert (code, out) == (2, "")
    assert err == f"error: unsupported classical folding {spec.upper()!r}\n"


@pytest.mark.parametrize("argv", [("fold", "A05:C3"), ("info", "A05")], ids=" ".join)
def test_zero_padded_source_rank_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: malformed type label: 'A05'\n"


@pytest.mark.parametrize("size", ["-5", "0"])
def test_coxplane_svg_size_refused(tmp_path, capsys, size):
    target = tmp_path / "e6.svg"
    code, out, err = run(capsys, "coxplane", "E6", "--svg", str(target), "--size", size)
    assert (code, out) == (2, "")
    assert "size" in err
    assert not target.exists()


def test_verify_single_type(capsys):
    code, out, _ = run(capsys, "verify", "A2")
    assert code == 0
    assert "16/16 criteria passed" in out
    assert "\x1b[" not in out  # stdout is not a terminal, so no color


def test_verify_checks_the_named_types_and_has_no_all_flag(capsys):
    # With no type named, verify runs the default types; there is no --all.
    for argv in (["verify", "--all"], ["verify", "A9", "--all"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    code, out, _ = run(capsys, "verify", "A9", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == len(verify.CRITERIA)
    assert {r["label"] for r in records} == {"A9"}


def test_verify_repeat_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "A2", "A3")
    _, out2, _ = run(capsys, "verify", "A2", "A3")
    strip = lambda s: [line.rsplit("(", 1)[0] for line in s.splitlines()]
    assert strip(out1) == strip(out2)


def test_verify_json_is_the_records(capsys):
    # One object per run_verify record, field by field; only the timings differ.
    code, out, _ = run(capsys, "verify", "A2", "D5", "--json")
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    want = [dataclasses.asdict(r) for r in verify.run_verify(["A2", "D5"])]
    assert [list(g) for g in got] == [list(w) for w in want]
    strip = lambda records: [{k: v for k, v in r.items() if k != "millis"} for r in records]
    assert strip(got) == strip(want)
    assert all(isinstance(g["millis"], float) for g in got)


def test_verify_reports_a_crashed_type(capsys, monkeypatch):
    name, c01 = verify.CRITERIA[0]

    def check(t):
        if t.label == "D5":
            raise RuntimeError("lost the table")
        return c01.check(t)

    monkeypatch.setattr(verify, "CRITERIA", ((name, dataclasses.replace(c01, check=check)),)
                        + verify.CRITERIA[1:])
    code, out, _ = run(capsys, "verify", "A2", "D5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("C01-root-counts              FAIL  (")
    assert lines[1] == f"    D5 expected: {c01.expected}"
    assert lines[2] == "    D5 actual:   RuntimeError: lost the table"
    assert lines[3] == "      Traceback (most recent call last):"
    assert '      RuntimeError: lost the table' in lines
    assert lines[-1] == "15/16 criteria passed"
    code, out, _ = run(capsys, "verify", "A2", "D5", "--json")
    assert code == 1
    (crash,) = [r for r in map(json.loads, out.splitlines())
                if r["status"] not in (verify.PASS, verify.NA)]
    assert (crash["name"], crash["label"], crash["status"]) == (name, "D5", verify.ERROR)
    assert crash["traceback"].rstrip().endswith("RuntimeError: lost the table")


def test_lie_model_na_past_rank_8(capsys):
    code, out, err = run(capsys, "lie", "A9", "--check", "model")
    assert (code, err) == (0, "")
    assert "matrix model (n/a)" in out


def test_cached_parser_leaks_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "coxplane", "A2", "--svg", str(a), "--size", "300")[0] == 0
    assert run(capsys, "coxplane", "A2", "--svg", str(b))[0] == 0
    assert 'width="300"' in a.read_text()
    assert 'width="600"' in b.read_text()
    x, y = tmp_path / "x", tmp_path / "y"
    assert run(capsys, "export", "A2", "-o", str(x), "--format", "csv")[0] == 0
    assert run(capsys, "export", "A2", "-o", str(y))[0] == 0
    assert x.read_text().startswith("i,j,terms\n")
    assert json.loads(y.read_text())["type"] == "A2"
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
