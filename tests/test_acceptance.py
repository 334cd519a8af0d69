"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Runs the same registry the ``geomlie verify`` command uses, over every type
up to rank 8 (A1..A8, D3..D8, E6, E7, E8).  All checks are exact except the
projection criteria, whose tolerances (1e-9 equivariance, 1e-6 clustering)
are fixed inside the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from geomlie import verify
from geomlie.lattice import cartan_matrix
from geomlie.rootsys import enumerate_roots
from geomlie.verify import CRITERIA, run_verify


@pytest.fixture(scope="session")
def verify_results():
    results = run_verify()
    by_name = {r.name: r for r in results}
    return by_name


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name, verify_results):
    result = verify_results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.name:28s} {status}  ({result.millis} ms)")
    assert result.passed, (
        f"{result.name}: expected {result.expected}; actual {result.actual}")


def test_crashed_criterion_names_the_exception(monkeypatch):
    def crash(labels):
        raise RuntimeError("lost the table")

    monkeypatch.setattr(verify, "CRITERIA", (("C99-crash", crash),))
    [result] = run_verify(["A2"])
    assert not result.passed
    assert result.actual == "RuntimeError: lost the table"


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
