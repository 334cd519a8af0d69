"""Acceptance suite: one test per criterion and one per (criterion, type).

Runs the same registry the ``geomlie verify`` command uses, over every type
up to rank 8 (A1..A8, D3..D8, E6, E7, E8).  All checks are exact except the
projection criteria, whose tolerances (1e-9 equivariance, 1e-6 clustering)
are fixed inside the library.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from geomlie import _exact, verify
from geomlie.lattice import cartan_matrix
from geomlie.rootsys import enumerate_roots
from geomlie.verify import ALL_TYPE_LABELS, CRITERIA, Criterion, run_verify

# The types outside each family-specific claim; every other record must pass.
NOT_APPLICABLE = {
    "C03-printed-monodromy": {lab for lab in ALL_TYPE_LABELS if lab[0] != "E"},
    "C09-type-A-matrix-model": {lab for lab in ALL_TYPE_LABELS if lab[0] != "A"},
    "C11-d-sign-rule": {lab for lab in ALL_TYPE_LABELS if lab[0] != "D"},
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


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
@pytest.mark.parametrize("which", [0, -1])
def test_box_scan_negative_control(label, which):
    # Zeroing one -1 entry changes the quadratic form, so the scan must see
    # a different vector set; the first entry sits in the leading row, the
    # last in the tail block.
    C = cartan_matrix(label)
    roots = set(enumerate_roots(label).roots)
    assert verify._box_scan(C) == roots
    perturbed = C.copy()
    perturbed[tuple(np.argwhere(C == -1)[which])] = 0
    assert verify._box_scan(perturbed) != roots
