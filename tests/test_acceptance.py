"""Acceptance suite: one test per criterion and one per (criterion, type).

Runs the same registry the ``geomlie verify`` command uses, over every type
up to rank 8 (A1..A8, D3..D8, E6, E7, E8).  All checks are exact except the
projection criteria, whose tolerances (1e-9 equivariance, 1e-6 clustering)
are fixed inside the library.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

from geomlie import _exact, liealg, verify
from geomlie.lattice import cartan_matrix
from geomlie.rootsys import enumerate_roots
from geomlie.verify import ALL_TYPE_LABELS, CRITERIA, Criterion, run_verify

# The types outside each family-specific claim; every other record must pass.
NOT_APPLICABLE = {
    "C03-printed-monodromy": {lab for lab in ALL_TYPE_LABELS if lab[0] != "E"},
    "C09-type-A-matrix-model": {lab for lab in ALL_TYPE_LABELS if lab[0] != "A"},
    "C11-planar-sign-rule": {"E6", "E7", "E8"},
    # No classical folding starts from these.
    "C14-folding": {"A1", "A2", "A4", "A6", "A8", "D3", "E7", "E8"},
    "C15-coxeter-plane": {"A1"},
}


@pytest.fixture(scope="session")
def verify_records():
    return {(r.name, r.label): r for r in run_verify()}


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name, verify_records):
    records = [r for (n, _), r in verify_records.items() if n == name]
    bad = [r for r in records if not r.ok]
    status = "FAIL" if bad else "PASS"
    print(f"{name:28s} {status}  ({sum(r.millis for r in records):.0f} ms)")
    assert len(records) == len(ALL_TYPE_LABELS)
    assert not bad, "; ".join(f"{r.label}: expected {r.expected}; actual {r.actual}"
                              for r in bad)


@pytest.mark.parametrize("label", ALL_TYPE_LABELS)
@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion_on_type(name, label, verify_records):
    r = verify_records[name, label]
    want = "n/a" if label in NOT_APPLICABLE.get(name, ()) else "pass"
    assert r.status == want, f"expected {r.expected}; actual {r.actual}\n{r.traceback}"


def test_crash_on_one_type_hides_nothing(monkeypatch):
    name, c05 = CRITERIA[4]

    def check(t):
        if t.label == "D5":
            raise RuntimeError("lost the table")
        return c05.check(t)

    crashing = dataclasses.replace(c05, check=check)
    monkeypatch.setattr(verify, "CRITERIA", tuple(
        (n, crashing if c is c05 else c) for n, c in CRITERIA))
    records = run_verify()
    assert len(records) == len(CRITERIA) * len(ALL_TYPE_LABELS)
    [bad] = [r for r in records if r.status not in ("pass", "n/a")]
    assert (bad.name, bad.label, bad.status) == (name, "D5", "error")
    assert bad.actual == "RuntimeError: lost the table"
    assert 'raise RuntimeError("lost the table")' in bad.traceback
    assert crashing(["A2", "D5"]) == (False, c05.expected, "D5: RuntimeError: lost the table")


def test_c08_names_a_root_breaking_sl2(monkeypatch, with_coefficients):
    # [D_1, g_a] = 2 g_a made 3 g_a for a = (1, 0, 0, 0) breaks [h, e] = 2e at a
    # and, through h_{-a} = -h_a, [h, f] = -2f at -a.
    real = liealg.build

    def corrupted(t):
        L = real(t)
        T = L.table
        c = T.c.copy()
        c[(T.i == 0) & (T.j == L.rank + L.root_system.index[(1, 0, 0, 0)])] = 3
        return with_coefficients(L, c)

    monkeypatch.setattr(liealg, "build", corrupted)
    c08 = dict(CRITERIA)["C08-sl2-triples"]
    assert c08(["D4"]) == (False, c08.expected,
                           "D4: (-1, 0, 0, 0) and 1 more roots break sl2 laws")


def test_second_run_reading_the_memo_changes_no_outcome():
    # A fresh interpreter, so the first run fills the per-type memo (the
    # shared algebras included) and the second reads it.
    script = ("from geomlie.verify import run_verify\n"
              "first, second = ([(r.name, r.label, r.status, r.actual) for r in run_verify()]\n"
              "                 for _ in range(2))\n"
              "print(len(first), first == second)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == f"{len(CRITERIA) * len(ALL_TYPE_LABELS)} True\n"


def test_crashed_criterion_names_the_exception(monkeypatch):
    def crash(t):
        raise RuntimeError("lost the table")

    monkeypatch.setattr(verify, "CRITERIA",
                        (("C99-crash", Criterion("C99-crash", "no crash", crash)),))
    [result] = run_verify(["A2"])
    assert (result.status, result.ok) == ("error", False)
    assert result.actual == "RuntimeError: lost the table"


def test_label_list_form():
    # perfbench's verify workload calls func([label]) for each (name, func)
    # and unpacks (passed, expected, actual); it also rebinds short_vectors.
    assert [name[:3] for name, _ in CRITERIA] == [f"C{i:02d}" for i in range(1, 17)]
    for name, func in CRITERIA:
        for label in ("A2", "E6"):
            passed, expected, actual = func([label])
            assert passed is True, (name, label, actual)
            assert isinstance(expected, str) and isinstance(actual, str)
    assert verify.short_vectors is _exact.short_vectors
    c03 = dict(CRITERIA)["C03-printed-monodromy"]
    assert c03(["A2"]) == (True, c03.expected, "A2: n/a")


@pytest.mark.usefixtures("quiet_d3_warning")
@pytest.mark.parametrize("label", [lab for lab in ALL_TYPE_LABELS if int(lab[1:]) <= 6])
@pytest.mark.parametrize("which", [0, -1])
def test_box_scan_negative_control(label, which):
    # Zeroing one -1 entry changes the quadratic form, so the scan must see
    # a different vector set; the first entry sits in the leading row, the
    # last in the tail block.  A1 (an empty tail) has no -1 entry, so its
    # diagonal entry is zeroed instead.
    C = cartan_matrix(label)
    roots = set(enumerate_roots(label).roots)
    assert verify._box_scan(C) == roots
    perturbed = C.copy()
    spots = np.argwhere(C == -1) if len(C) > 1 else [(0, 0)]
    perturbed[tuple(spots[which])] = 0
    assert verify._box_scan(perturbed) != roots


# Every type the C16 box scan runs on: A1-A6, D3-D6 and E6.
BOX_SCANNED = [lab for lab in ALL_TYPE_LABELS if int(lab[1:]) <= verify._BOX_SCAN_MAX_RANK]


@pytest.mark.usefixtures("quiet_d3_warning")
@pytest.mark.parametrize("label", BOX_SCANNED)
def test_box_scan_bound_reaches_every_root(label):
    # A root v (v^t C v = 2, C positive definite) has v_i^2 <= 2 (C^-1)_ii,
    # so the box |v_i| <= _BOX_SCAN_BOUND holds every root.
    assert len(BOX_SCANNED) == 11
    diagonal = sympy.Matrix(cartan_matrix(label).tolist()).inv().diagonal()
    assert math.isqrt(math.floor(2 * max(diagonal))) <= verify._BOX_SCAN_BOUND
    if label == "E6":  # the largest entry over the scanned types, at the trivalent node
        assert max(diagonal) == 6


@pytest.mark.usefixtures("quiet_d3_warning")
@pytest.mark.parametrize("label", BOX_SCANNED)
def test_box_scan_at_the_wider_bound_finds_the_same_set(label, monkeypatch):
    C = cartan_matrix(label)
    found = verify._box_scan(C)
    monkeypatch.setattr(verify, "_BOX_SCAN_BOUND", 6)
    assert verify._box_scan(C) == found


def test_verify_past_rank_8_has_no_fail_or_error():
    # The A9 monodromy is not free (h = 10 = 2 mod 4) and the matrix model
    # stops at A8, so C05 must expect (10, 10, False) and C09 must read n/a.
    # C15 must expect an injective projection on A10 and A12 (h odd) only.
    records = run_verify(["A9", "A10", "A11", "A12", "D9", "D10"])
    assert [(r.name, r.label, r.actual) for r in records if r.status in ("fail", "error")] == []
    assert {r.label for r in records if r.name == "C09-type-A-matrix-model"
            and r.status == "n/a"} == {"A9", "A10", "A11", "A12", "D9", "D10"}
