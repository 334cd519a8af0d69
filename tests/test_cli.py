"""Command-line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
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


def test_lie_refuses_oversized_type(capsys):
    code, out, err = run(capsys, "lie", "A60", "--check", "jacobi")
    assert code == 2
    assert "A60 is too large" in err
    assert out == ""


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
