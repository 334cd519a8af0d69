"""Type data, Seifert/Cartan matrices and the bilinear forms."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from geomlie import lattice
from geomlie.lattice import (AbsoluteCycle, RelativeCycle, cartan_matrix,
                             is_distinguished, make_type, matrix_payload,
                             mixed_intersection, pairing, projective_basis,
                             seifert_form, seifert_matrix,
                             stabilized_pairing_matrix, variation,
                             variation_inverse)
from geomlie.rootsys import coxeter_matrix, enumerate_roots, monodromy_matrix
from geomlie.wheel import enumerate_classes

ALL_LABELS = [f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(3, 9)] + \
    ["E6", "E7", "E8"]


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


def test_make_type_constants():
    t = make_type("E8")
    assert (t.family, t.rank, t.coxeter_number, t.root_count) == ("E", 8, 30, 240)
    t = make_type("A1")
    assert (t.coxeter_number, t.root_count) == (2, 2)
    t = make_type("a4")  # case-insensitive
    assert t.label == "A4"
    assert make_type("D5").coxeter_number == 8
    assert make_type("D5").root_count == 40


@pytest.mark.parametrize("bad", ["D2", "E5", "E9", "A0", "B4", "X1", "A", "4", "Ak"])
def test_make_type_rejects(bad):
    with pytest.raises(ValueError):
        make_type(bad)


def test_d3_warns():
    with pytest.warns(UserWarning):
        make_type("D3")


@pytest.mark.parametrize("builder", [seifert_matrix, cartan_matrix, projective_basis,
                                     coxeter_matrix, enumerate_roots, enumerate_classes],
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
    assert is_distinguished(B, upper=True)
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


def test_mixed_intersection_examples():
    # entries of B itself
    assert mixed_intersection("A2", (0, 1), (1, 0)) == 0
    assert mixed_intersection("A2", (1, 0), (0, 1)) == -1
    for label in ("A3", "D4", "E6"):
        t = make_type(label)
        for i in range(t.rank):
            e = [0] * t.rank
            e[i] = 1
            assert mixed_intersection(t, e, e) == 1


def test_intersection_abs_antisymmetry():
    rng = random.Random(7)
    for label in ("A2", "D5", "E7"):
        t = make_type(label)
        for _ in range(20):
            a = [rng.randint(-4, 4) for _ in range(t.rank)]
            b = [rng.randint(-4, 4) for _ in range(t.rank)]
            assert lattice.intersection_abs(t, a, a) == 0
            assert lattice.intersection_abs(t, a, b) == -lattice.intersection_abs(t, b, a)
    assert lattice.intersection_abs("A2", (0, 1), (1, 0)) == -1


def test_seifert_form_examples():
    assert seifert_form("A2", (1, 0), (1, 0)) == -1
    assert seifert_form("A2", (0, 1), (1, 0)) == 1
    rng = random.Random(11)
    for label in ALL_LABELS:
        t = make_type(label)
        for _ in range(10):
            a = [rng.randint(-3, 3) for _ in range(t.rank)]
            b = [rng.randint(-3, 3) for _ in range(t.rank)]
            assert -(seifert_form(t, a, b) + seifert_form(t, b, a)) == pairing(t, a, b)


def test_variation_round_trip():
    v = RelativeCycle((1, -2, 3))
    a = variation(v)
    assert isinstance(a, AbsoluteCycle)
    assert a.coords == (1, -2, 3)
    assert variation_inverse(a) == v
    # linearity is coordinate identity
    assert variation((1, 1, 0)).coords == (1, 1, 0)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_pairing_is_symmetrized_mixed_intersection(label):
    t = make_type(label)
    rng = random.Random(hash(label) % 10_000)
    for _ in range(100):
        a = [rng.randint(-5, 5) for _ in range(t.rank)]
        b = [rng.randint(-5, 5) for _ in range(t.rank)]
        lhs = pairing(t, a, b)
        rhs = mixed_intersection(t, variation(a).coords, b) + \
            mixed_intersection(t, variation(b).coords, a)
        assert lhs == rhs


@pytest.mark.parametrize("label", ALL_LABELS)
def test_monodromy_variation_identity(label):
    # var(beta) . rho(alpha) == var(alpha) . beta, i.e. B M = B^t.
    t = make_type(label)
    B = seifert_matrix(t)
    M = monodromy_matrix(t)
    assert np.array_equal(B @ M, B.T)
    rng = random.Random(3)
    for _ in range(25):
        a = np.array([rng.randint(-4, 4) for _ in range(t.rank)])
        b = np.array([rng.randint(-4, 4) for _ in range(t.rank)])
        assert mixed_intersection(t, b, M @ a) == mixed_intersection(t, a, b)


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


def test_projective_basis_printed_rows():
    assert projective_basis("E6")[4].tolist() == [1, 1, 1, 1, 1, 0]
    assert projective_basis("A3").tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
    assert projective_basis("D4")[1].tolist() == [0, 1, 0, 0]
    assert projective_basis("E8")[3].tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
    assert projective_basis("E7")[2].tolist() == [0, 1, 1, 0, 0, 0, 0]


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
    assert is_distinguished(B, upper=True)
    assert is_distinguished(Q @ B @ Q.T, upper=False)


def test_is_distinguished_basics():
    assert is_distinguished(np.eye(3, dtype=int))
    assert not is_distinguished([[1, 0], [1, 1]], upper=True)
    assert is_distinguished([[1, 0], [1, 1]], upper=False)
    assert not is_distinguished([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        is_distinguished([[1, 0, 0], [0, 1, 0]])


def test_matrix_payload_schema():
    payload = matrix_payload("A2", seifert_matrix("A2"))
    assert payload == {"type": "A2", "matrix": [[1, -1], [0, 1]]}
    json.dumps(payload)  # serializable
