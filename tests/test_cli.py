"""Command-line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json

import pytest

from geomlie import cli, verify
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


def test_sl2(capsys):
    code, out, _ = run(capsys, "sl2", "A3")
    assert code == 0
    assert "12 sl2 triples" in out


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


def test_verify_single_type(capsys, monkeypatch):
    monkeypatch.setenv("GEOMLIE_COLOR", "0")
    code, out, _ = run(capsys, "verify", "A2")
    assert code == 0
    assert "16/16 criteria passed" in out
    assert "\x1b[" not in out  # color disabled


def test_verify_repeat_is_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("GEOMLIE_COLOR", "0")
    _, out1, _ = run(capsys, "verify", "A2", "A3")
    _, out2, _ = run(capsys, "verify", "A2", "A3")
    strip = lambda s: [line.rsplit("(", 1)[0] for line in s.splitlines()]
    assert strip(out1) == strip(out2)


def test_verify_reports_a_crashed_type(capsys, monkeypatch):
    monkeypatch.setenv("GEOMLIE_COLOR", "0")
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
