"""Type data, Seifert/Cartan matrices and the bilinear forms."""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
from typing import Mapping

import numpy as np
import pytest

import geomlie
from geomlie import rootsys, verify
from geomlie._exact import inv_unitriangular
from geomlie.lattice import (cartan_matrix, make_type, matrix_payload, pairing, per_type,
                             projective_basis, seifert_matrix,
                             stabilized_pairing_matrix)
from geomlie.liealg import build
from geomlie.rootsys import coxeter_matrix, enumerate_roots, monodromy_matrix
from geomlie.wheel import enumerate_classes

ALL_LABELS = [f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(3, 9)] + \
    ["E6", "E7", "E8"]


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


def _unitriangular(m: np.ndarray, upper: bool) -> bool:
    """Triangular (upper or lower) with every diagonal entry 1: a distinguished collection."""
    return np.array_equal(np.triu(m) if upper else np.tril(m), m) and np.all(np.diagonal(m) == 1)


def test_make_type_constants():
    t = make_type("E8")
    assert (t.family, t.rank, t.coxeter_number, t.root_count) == ("E", 8, 30, 240)
    t = make_type("A1")
    assert (t.coxeter_number, t.root_count) == (2, 2)
    t = make_type("a4")  # case-insensitive
    assert t.label == "A4"
    assert make_type("D5").coxeter_number == 8
    assert make_type("D5").root_count == 40


@pytest.mark.parametrize("bad", ["D2", "E5", "E9", "A0", "B4", "X1", "A", "4", "Ak",
                                 "A05", "D04", "E08", "A\u0663"])
def test_make_type_rejects(bad):
    with pytest.raises(ValueError):
        make_type(bad)


def test_d3_warns():
    with pytest.warns(UserWarning):
        make_type("D3")


@pytest.mark.parametrize("builder", [seifert_matrix, cartan_matrix, projective_basis,
                                     coxeter_matrix, enumerate_roots, enumerate_classes,
                                     build],
                         ids=lambda f: f.__name__)
def test_per_type_builders_memoize_by_label(builder):
    assert builder("A2") is builder(make_type("A2")) is builder("a2")


@pytest.mark.parametrize("builder", [seifert_matrix, cartan_matrix, projective_basis,
                                     coxeter_matrix], ids=lambda f: f.__name__)
def test_per_type_arrays_are_read_only(builder):
    m = builder("D4")
    with pytest.raises(ValueError):
        m[0, 0] = 7
    assert builder("D4")[0, 0] == m[0, 0] != 7


def test_shared_algebra_table_is_read_only():
    L = build("D4")
    before = L.table.c.copy()
    with pytest.raises(ValueError):
        L.table.c[0] = 7
    assert build("D4") is L
    assert np.array_equal(build("D4").table.c, before)


def _per_type_builders() -> dict:
    """Every builder memoized by ``per_type`` in the package, by qualified name.

    A memoized builder is ``per_type``'s wrapper: it shares the wrapper's code
    object and carries the builder as ``__wrapped__``.
    """
    wrapper = per_type(lambda t: t).__code__
    found = {}
    for info in pkgutil.iter_modules(geomlie.__path__):
        for value in vars(importlib.import_module(f"geomlie.{info.name}")).values():
            if getattr(value, "__code__", None) is wrapper and hasattr(value, "__wrapped__"):
                found[f"{value.__module__}.{value.__name__}"] = value
    return found


def _mutable_parts(value, path: str) -> list[str]:
    """Every list, dict, set or writeable array reachable from ``value``
    through tuples, dataclass fields and mapping values."""
    if isinstance(value, (list, dict, set)):
        return [f"{path} is a {type(value).__name__}"]
    if isinstance(value, np.ndarray):
        return [f"{path} is a writeable array"] if value.flags.writeable else []
    if isinstance(value, tuple):
        parts = enumerate(value)
    elif dataclasses.is_dataclass(value):
        parts = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    elif isinstance(value, Mapping):
        parts = value.items()
    else:
        return []
    return [bad for key, part in parts for bad in _mutable_parts(part, f"{path}[{key!r}]")]


def test_per_type_results_are_immutable():
    # A memoized result is shared by every later caller, so none may change it.
    builders = _per_type_builders()
    assert {"geomlie.lattice.seifert_matrix", "geomlie.rootsys.enumerate_roots",
            "geomlie.wheel.enumerate_classes", "geomlie.coxplane._fibre_map",
            "geomlie.liealg.build", "geomlie.liealg._seed_orbits",
            "geomlie.liealg._pair_permutations"} <= set(builders)
    bad = []
    for name, builder in builders.items():
        for label in ("A3", "D4", "E6"):
            try:
                out = builder(label)
            except ValueError:  # the planar wheel tables exist only for A and D
                continue
            bad += _mutable_parts(out, f"{name}({label})")
    assert not bad


def test_seifert_matrix_printed_forms():
    assert seifert_matrix("A2").tolist() == [[1, -1], [0, 1]]
    assert seifert_matrix("A1").tolist() == [[1]]
    # row 2 of the E6 matrix
    assert seifert_matrix("E6")[1].tolist() == [0, 1, 0, 0, -1, 0]
    assert seifert_matrix("E7")[0].tolist() == [1, 0, 0, 0, -1, 0, 0]
    assert seifert_matrix("E8")[0].tolist() == [1, 0, 0, -1, 0, 0, 0, 0]
    assert seifert_matrix("D4")[0].tolist() == [1, 0, -1, 0]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_seifert_matrix_invariants(label):
    B = seifert_matrix(label)
    assert _unitriangular(B, upper=True)
    # unimodular: integer determinant 1 for a unit upper-triangular matrix
    from geomlie._exact import det_exact
    assert det_exact(B) == 1
    C = B + B.T
    assert np.array_equal(C, C.T)
    assert np.all(np.diagonal(C) == 2)
    off = C - np.diag(np.diagonal(C))
    assert set(np.unique(off)) <= {0, -1}
    # positive definite: every leading principal minor is positive
    for m in range(1, C.shape[0] + 1):
        assert det_exact(C[:m, :m]) > 0


def test_cartan_matrix_examples():
    assert cartan_matrix("A2").tolist() == [[2, -1], [-1, 2]]
    assert cartan_matrix("A1").tolist() == [[2]]
    C = cartan_matrix("D4")
    adjacent_to_3 = [i + 1 for i in range(4) if C[2, i] == -1]
    assert adjacent_to_3 == [1, 2, 4]


def test_pairing_examples():
    assert pairing("A2", (1, 0), (1, 0)) == 2
    assert pairing("A2", (1, 0), (0, 1)) == -1
    assert pairing("E7", (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)) == 0
    with pytest.raises(ValueError):
        pairing("A2", (1, 0, 0), (0, 1))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_pairing_is_symmetrized_mixed_intersection(label):
    # The bilinear form is the negative of the symmetrized Seifert form L = -B^t.
    L = -seifert_matrix(label).T
    assert np.array_equal(-(L + L.T), cartan_matrix(label))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_monodromy_variation_identity(label):
    # var(beta) . rho(alpha) == var(alpha) . beta for all alpha, beta, i.e. B M = B^t.
    B = seifert_matrix(label)
    assert np.array_equal(B @ monodromy_matrix(label), B.T)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_stabilized_pairing_constant(label):
    C = cartan_matrix(label)
    for n in range(2, 7):
        assert np.array_equal(stabilized_pairing_matrix(label, n), C)
    with pytest.raises(ValueError):
        stabilized_pairing_matrix(label, 1)


def test_stabilization_sign_recursion_oracle():
    # One suspension step multiplies the Seifert form by (-1)^m (tensor
    # factor for m variables) times -1 (the one-variable form value).
    sign = 1
    for n in range(3, 7):
        sign *= (-1) ** (n - 1) * (-1)
        assert ((-1) ** (n * (n + 1) // 2)) * sign == -1
    assert (-1) ** 3 * 1 == -1  # n = 2 base case


# The projective basis as printed, independent of B: b_j = a_1 + ... + a_j
# for A, the same for D except b_2 = a_2, and these rows for E.
PRINTED_E_BASIS = {
    "E6": ((1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
           (0, 0, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1)),
    "E7": ((1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0),
           (0, 1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 1, 0),
           (1, 1, 1, 1, 1, 1, 1)),
    "E8": ((1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0),
           (0, 1, 1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0, 0),
           (1, 1, 1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1, 0, 0),
           (1, 1, 1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1, 1, 1)),
}


def _printed_projective_basis(label: str) -> np.ndarray:
    if label in PRINTED_E_BASIS:
        return np.array(PRINTED_E_BASIS[label], dtype=np.int64)
    k = make_type(label).rank
    Q = np.tril(np.ones((k, k), dtype=np.int64))
    if label[0] == "D":
        Q[1, 0] = 0
    return Q


def test_projective_basis_printed_rows():
    # B^{-t}, derived from B alone, is the printed basis on every family.
    labels = [f"A{k}" for k in range(1, 32)] + [f"D{k}" for k in range(3, 21)] + \
        ["E6", "E7", "E8"]
    for label in labels:
        assert np.array_equal(projective_basis(label), _printed_projective_basis(label)), label


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_printed_monodromy_pins_every_entry_of_b(label, monkeypatch):
    # C03 reads the projective monodromy B^t B^{-1} straight from B, so
    # zeroing any one -1 of B must break its match with the printed matrix.
    c03 = dict(verify.CRITERIA)["C03-printed-monodromy"]
    B = seifert_matrix(label)
    printed = np.array(verify.PRINTED_MONODROMY[label], dtype=np.int64)
    assert np.array_equal(B.T @ inv_unitriangular(B), printed)
    # Passing once first fills the memos behind the order check, so the
    # patched B below reaches only the projective monodromy.
    assert c03.check(make_type(label)) == []
    spots = np.argwhere(B == -1)
    assert len(spots) == len(B) - 1
    for i, j in spots:
        perturbed = B.copy()
        perturbed[i, j] = 0
        assert not np.array_equal(perturbed.T @ inv_unitriangular(perturbed), printed), (i, j)
        monkeypatch.setattr(rootsys, "seifert_matrix", lambda t: perturbed)
        assert c03.check(make_type(label)) == ["matrix mismatch"], (i, j)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_projective_basis_rows_are_roots(label):
    t = make_type(label)
    rs = enumerate_roots(t)
    Q = projective_basis(t)
    for row in Q:
        assert pairing(t, row, row) == 2
        assert tuple(int(x) for x in row) in rs.index


@pytest.mark.parametrize("label", ALL_LABELS)
def test_variation_matrix_triangularity(label):
    # Simple basis: variation matrix B is upper triangular (distinguished);
    # projective basis: Q B Q^t is lower triangular, so the reversed
    # collection is distinguished.
    t = make_type(label)
    B = seifert_matrix(t)
    Q = projective_basis(t)
    assert _unitriangular(B, upper=True)
    assert _unitriangular(Q @ B @ Q.T, upper=False)


def test_matrix_payload_schema():
    payload = matrix_payload("A2", seifert_matrix("A2"))
    assert payload == {"type": "A2", "matrix": [[1, -1], [0, 1]]}
    json.dumps(payload)  # serializable
