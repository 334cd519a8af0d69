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
from geomlie.rootsys import enumerate_roots, sT_matrices
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


# Every type the Lie layer builds, and the claims that reach past rank 8.
LIE_LABELS = [f"A{k}" for k in range(1, 32)] + [f"D{k}" for k in range(3, 23)] + \
    ["E6", "E7", "E8"]
LIE_NOT_APPLICABLE = {
    "C03-printed-monodromy": {lab for lab in LIE_LABELS if lab[0] != "E"},
    "C09-type-A-matrix-model": set(LIE_LABELS) - {f"A{k}" for k in range(1, 9)},
    "C11-planar-sign-rule": {"E6", "E7", "E8"},
    "C14-folding": set(LIE_LABELS) - {"A3", "A5", "A7", "D4", "D5", "D6", "D7", "D8", "E6"},
    "C15-coxeter-plane": {"A1"},
}


def test_every_lie_layer_type_passes():
    # 54 types: 718 records pass and 146 are n/a (C03 51, C09 46, C11 3, C14 45, C15 1).
    want = {(name, lab): "n/a" if lab in LIE_NOT_APPLICABLE.get(name, ()) else "pass"
            for name, _ in CRITERIA for lab in LIE_LABELS}
    assert [len(labels) for labels in LIE_NOT_APPLICABLE.values()] == [51, 46, 3, 45, 1]
    assert sum(status == "pass" for status in want.values()) == 718
    got = {(r.name, r.label): r for r in run_verify(LIE_LABELS)}
    bad = {key: f"{r.status}: {r.actual}" for key, r in got.items() if r.status != want[key]}
    assert got.keys() == want.keys() and not bad


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


def test_c06_needs_the_seifert_form_preserved(monkeypatch):
    # The reflection s_1 preserves C = B + B^t but not B, so with s_1 in
    # place of the D5 monodromy C06 fails on D5 alone.
    real = verify.monodromy_matrix
    monkeypatch.setattr(verify, "monodromy_matrix",
                        lambda t: sT_matrices(t, 1)[0] if t.label == "D5" else real(t))
    S = sT_matrices("D5", 1)[0]
    C = cartan_matrix("D5")
    assert np.array_equal(S.T @ C @ S, C)
    c06 = dict(CRITERIA)["C06-pairing-invariance"]
    assert c06(["D4", "D5", "E6"]) == (False, c06.expected, "D5: P^t B P != B")


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


def test_c10_names_a_degenerate_killing_form(monkeypatch):
    # One more basis element with no rows is central: its row and column of
    # the Killing matrix are zero, so C10 fails by name, not by a crash.
    real = liealg.build

    def widened(t):
        L = real(t)
        T = L.table
        table = liealg.StructureTable.from_rows(L.dimension + 1, T.i, T.j, T.m, T.c)
        return dataclasses.replace(L, table=table)

    monkeypatch.setattr(liealg, "build", widened)
    c10 = dict(CRITERIA)["C10-killing-nondegenerate"]
    assert c10(["A3", "E6"]) == (False, c10.expected,
                                 "A3: Killing form degenerate; E6: Killing form degenerate")
    record, = (r for r in run_verify(["D4"]) if r.name == c10.name)
    assert (record.status, record.actual) == ("fail", "Killing form degenerate")


def _first_simple(L) -> int:
    """The basis index of g_{alpha_1}."""
    return L.rank + L.root_system.index[(1,) + (0,) * (L.rank - 1)]


def _cancelled_killing_pair(L):
    """``L`` with K(g_a, g_{-a}) = 0 for a = alpha_1, its rows' shapes kept.

    On a built table K(g_a, g_{-a}) = -2h sums -2 over the rows
    [g_a, D_d] -> g_a, -2 over [g_a, g_{-a}] -> D_d and -1 for each of the
    2h - 4 rows [g_a, g_b] -> g_{a+b}.  Negating the second kind and h - 2
    of the third gives -2 + 2 - (h - 2) + (h - 2) = 0.  No other entry reads
    a row of g_a, so the row of g_a in K is zero.
    """
    T, k, h = L.table, L.rank, L.lie_type.coxeter_number
    own = (T.i == _first_simple(L)) & (T.j >= k)
    root = np.flatnonzero(own & (T.m >= k))[:h - 2]
    c = T.c.copy()
    c[own & (T.m < k)] *= -1
    c[root] *= -1
    return dataclasses.replace(L, table=liealg.StructureTable.from_rows(T.n, T.i, T.j, T.m, c))


def test_c10_names_a_degenerate_killing_form_laid_out_on_its_roots(monkeypatch):
    # The rows keep the shapes of the bracket rules, so the form is read off
    # the root grading (A1: the [g_a, g_{-a}] -> D_1 coefficient negated,
    # its mirror left alone), and C10 still fails by name.
    real = liealg.build

    def cancelled(t):
        return _cancelled_killing_pair(real(t))

    for label in ("A1", "A2", "D4"):
        L = _cancelled_killing_pair(real(label))
        assert L._layout is not None
        assert not np.asarray(liealg.killing_form(L))[_first_simple(L)].any()
    monkeypatch.setattr(liealg, "build", cancelled)
    c10 = dict(CRITERIA)["C10-killing-nondegenerate"]
    assert c10(["A1", "A2", "D4"]) == (
        False, c10.expected,
        "A1: Killing form degenerate; A2: Killing form degenerate; D4: Killing form degenerate")
    record, = (r for r in run_verify(["A1"]) if r.name == c10.name)
    assert (record.status, record.actual) == ("fail", "Killing form degenerate")


@pytest.mark.parametrize("paired, actual", [
    (False, "A2: antisymmetry violated; D4: antisymmetry violated"),
    (True, "A2: lift of c not certified; 7 Jacobi violations; "
           "D4: lift of c not certified; 25 Jacobi violations"),
], ids=["one-row", "with-mirror"])
def test_c07_decides_antisymmetry_once(paired, actual, monkeypatch, with_coefficients):
    # One [g_a, g_b] row negated breaks antisymmetry, which fails the table
    # before any Jacobi term is summed; negating its mirror too restores it,
    # but not the lift of c, which C07 names, and leaves Jacobi violations,
    # one per violated (s, y, z) class of the generators e_1..e_k and
    # g_{-theta} (the counts of the textbook sweep, reference_generator_sweep
    # in test_liealg.py).  C07 reads the decision from the Jacobi report, so
    # each type's table is checked for antisymmetry once.
    real = liealg.build

    def corrupted(t):
        L = real(t)
        T = L.table
        c = T.c.copy()
        row = int(np.flatnonzero((T.i >= L.rank) & (T.i < T.j) & (T.m >= L.rank))[0])
        c[row] = -c[row]
        if paired:
            c[(T.i == T.j[row]) & (T.j == T.i[row]) & (T.m == T.m[row])] *= -1
        return with_coefficients(L, c)

    calls = []
    check_antisymmetry = liealg.check_antisymmetry
    monkeypatch.setattr(liealg, "build", corrupted)
    monkeypatch.setattr(liealg, "check_antisymmetry",
                        lambda L: calls.append(L.lie_type.label) or check_antisymmetry(L))
    c07 = dict(CRITERIA)["C07-lie-algebra-laws"]
    assert c07(["A2", "D4"]) == (False, c07.expected, actual)
    assert calls == ["A2", "D4"]


def _corrupt_d5_pair(monkeypatch, with_coefficients, change):
    """liealg.build with the first [g_a, g_b] -> g_{a+b} row of D5 and its mirror changed."""
    real = liealg.build

    def corrupted(t):
        L = real(t)
        if t.label != "D5":
            return L
        T = L.table
        c = T.c.copy()
        row = int(np.flatnonzero((T.i >= L.rank) & (T.i < T.j) & (T.m >= L.rank))[0])
        rows = [row, T.start[T.j[row] * L.dimension + T.i[row]]]  # [g_b, g_a] has one row
        c[rows] = change(c[rows])
        return with_coefficients(L, c)

    monkeypatch.setattr(liealg, "build", corrupted)


def test_c11_reads_the_built_table(monkeypatch, with_coefficients):
    # A [g_a, g_b] row negated with its mirror keeps the table antisymmetric,
    # and the planar rule, compared with the table's own coefficients, names
    # both rows on D5 and nothing elsewhere.
    _corrupt_d5_pair(monkeypatch, with_coefficients, lambda c: -c)
    c11 = dict(CRITERIA)["C11-planar-sign-rule"]
    assert c11(["A5", "D4", "D5", "D6"]) == (False, c11.expected, "D5: 2 mismatches")


def test_c11_names_a_missing_pair(monkeypatch, with_coefficients):
    # A zeroed pair leaves the table with two rows fewer than the summable
    # pairs: a named failure, not a shape error.
    _corrupt_d5_pair(monkeypatch, with_coefficients, lambda c: 0 * c)
    name = "C11-planar-sign-rule"
    monkeypatch.setattr(verify, "CRITERIA", ((name, dict(CRITERIA)[name]),))
    [result] = run_verify(["D5"])
    assert (result.status, result.actual) == (
        "fail", "the [g_a, g_b] rows onto roots are not the summable pairs")


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
