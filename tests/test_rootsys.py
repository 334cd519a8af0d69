"""Root enumeration, reflections, monodromy, orbits and foldings."""

from __future__ import annotations

import numpy as np
import pytest
from sympy.liealgebras.root_system import RootSystem as SympyRootSystem

from geomlie.lattice import cartan_matrix, make_type, projective_basis, seifert_matrix
from geomlie.rootsys import (FoldingSpec, FreenessError, coxeter_matrix, enumerate_roots,
                             fold, matrix_order, monodromy_matrix, orbit_decomposition,
                             reflect, rootsystem_payload, sT_matrices)
from geomlie.verify import PRINTED_MONODROMY, expected_orbit_table

ALL_LABELS = [f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(3, 9)] + \
    ["E6", "E7", "E8"]


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_counts(label):
    # sympy's root systems share no code with the closure or the count formula.
    assert len(enumerate_roots(label)) == len(SympyRootSystem(label).all_roots())


def test_a1_roots():
    assert enumerate_roots("A1").roots == ((-1,), (1,))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_system_axioms(label):
    t = make_type(label)
    rs = enumerate_roots(t)
    C = cartan_matrix(t)
    X = rs.coords
    norms = np.einsum("ai,ij,aj->a", X, C, X)
    assert np.all(norms == 2)
    # closed under negation; only multiples are +-alpha
    for r in rs.roots:
        assert tuple(-x for x in r) in rs.index
        for mult in (2, 3, -2):
            assert tuple(mult * x for x in r) not in rs.index
    # integrality of <beta, alpha> = (alpha, beta) since all norms are 2
    pair = X @ C @ X.T
    assert pair.dtype.kind == "i"
    # every reflection preserves the root set
    for a in range(len(rs)):
        images = X - np.outer(pair[a], X[a])
        for row in images:
            assert tuple(int(x) for x in row) in rs.index
    # simple-basis positivity: one sign per root
    for r in rs.roots:
        arr = np.array(r)
        assert np.all(arr >= 0) or np.all(arr <= 0)


def test_reflect_examples():
    alpha = (1, 0)
    assert reflect("A2", alpha, alpha) == (-1, 0)
    assert reflect("A2", alpha, (0, 1)) == (1, 1)
    # orthogonal pair is fixed
    assert reflect("A3", (1, 0, 0), (0, 0, 1)) == (0, 0, 1)
    with pytest.raises(ValueError):
        reflect("A2", (2, 0), (0, 1))  # norm 8, not a root


def test_reflect_involution_preserves_pairing():
    from geomlie.lattice import pairing
    t = make_type("D5")
    rs = enumerate_roots(t)
    alpha = rs.roots[3]
    for beta in rs.roots[:10]:
        image = reflect(t, alpha, beta)
        assert reflect(t, alpha, image) == beta
        assert pairing(t, image, image) == 2


def test_coxeter_matrix_orders():
    assert coxeter_matrix("A1").tolist() == [[-1]]
    assert matrix_order(coxeter_matrix("E8")) == 30
    assert matrix_order(coxeter_matrix("D5")) == 8
    for label in ALL_LABELS:
        t = make_type(label)
        assert matrix_order(coxeter_matrix(t)) == t.coxeter_number


def test_monodromy_simple_basis():
    assert monodromy_matrix("A1").tolist() == [[1]]
    for label in ALL_LABELS:
        assert np.array_equal(monodromy_matrix(label), -coxeter_matrix(label))


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_printed_projective_monodromy(label):
    # The printed matrix is -c written in the projective basis: Q^t P = (-c) Q^t,
    # checked without inverting Q^t.
    QT = projective_basis(label).T
    P = np.array(PRINTED_MONODROMY[label], dtype=np.int64)
    assert np.array_equal(QT @ P, monodromy_matrix(label) @ QT)


def test_e6_monodromy_moves_spoke():
    # rho(beta_3) = beta_3 - beta_4 in the projective basis
    P = monodromy_matrix("E6", basis="projective")
    assert P[:, 2].tolist() == [0, 0, 1, -1, 0, 0]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_monodromy_preserves_pairing(label):
    # The monodromy preserves the Seifert form B itself, not only C = B + B^t.
    B = seifert_matrix(label)
    P = monodromy_matrix(label)
    assert np.array_equal(P.T @ B @ P, B)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_projective_conjugation_consistency(label):
    # P in the projective basis is conjugate to -c by Q^t.
    QT = projective_basis(label).T
    M = monodromy_matrix(label)
    P = monodromy_matrix(label, basis="projective")
    assert np.array_equal(QT @ P, M @ QT)


def test_sT_matrices_entries():
    for label in ("A1", "D4", "E8"):
        t = make_type(label)
        for lam in range(1, t.rank + 1):
            S, T = sT_matrices(t, lam)
            assert S[lam - 1, lam - 1] == -1
            assert T[lam - 1, lam - 1] == 1
    S, T = sT_matrices("A1", 1)
    assert S.tolist() == [[-1]] and T.tolist() == [[1]]
    with pytest.raises(ValueError):
        sT_matrices("A2", 3)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_sT_identity(label):
    # Each product on its own: S_1..S_k is c and T_1..T_k is the monodromy -c.
    t = make_type(label)
    S = np.eye(t.rank, dtype=np.int64)
    T = np.eye(t.rank, dtype=np.int64)
    for lam in range(1, t.rank + 1):
        Sl, Tl = sT_matrices(t, lam)
        S = S @ Sl
        T = T @ Tl
    assert np.array_equal(S, coxeter_matrix(t))
    assert np.array_equal(T, monodromy_matrix(t))


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("operator", ["monodromy", "coxeter_bar"])
def test_orbit_tables(label, operator):
    expected_order, expected_orbits, expected_free = expected_orbit_table(label, operator)
    if label == "A5" and operator == "monodromy":
        # The hexagon diameters close up after 3 of the 6 steps: the action
        # is genuinely not free and splits 30 roots into 4 x 6 + 2 x 3.
        with pytest.raises(FreenessError):
            orbit_decomposition(label, operator)
        dec = orbit_decomposition(label, operator, require_free=False)
        assert dec.operator_order == 6
        assert sorted(len(o) for o in dec.orbits) == [3, 3, 6, 6, 6, 6]
        return
    dec = orbit_decomposition(label, operator)
    assert dec.operator_order == expected_order
    assert len(dec.orbits) == expected_orbits
    assert dec.is_free == expected_free
    flat = [i for orbit in dec.orbits for i in orbit]
    assert sorted(flat) == list(range(len(dec.root_system)))


def test_orbit_examples():
    dec = orbit_decomposition("E7", "monodromy")
    assert (dec.operator_order, len(dec.orbits)) == (9, 14)
    dec = orbit_decomposition("E7", "coxeter_bar")
    assert (dec.operator_order, len(dec.orbits)) == (18, 7)
    dec = orbit_decomposition("A4", "monodromy")
    assert (dec.operator_order, len(dec.orbits)) == (10, 2)
    dec = orbit_decomposition("A1", "monodromy")
    assert (dec.operator_order, len(dec.orbits)) == (1, 2)


def test_orbit_json_schema():
    dec = orbit_decomposition("A2", "coxeter_bar")
    payload = dec.to_json()
    assert set(payload) == {"operator", "order", "orbits"}
    assert payload["order"] == 3
    assert all(isinstance(i, int) for orbit in payload["orbits"] for i in orbit)


def test_coxeter_bar_orbits_match_negated_monodromy():
    # c = -rho, so c-orbits equal orbits of negation composed with rho.
    label = "D5"
    rs = enumerate_roots(label)
    M = monodromy_matrix(label)
    dec = orbit_decomposition(label, "coxeter_bar")
    for orbit in dec.orbits:
        for a, b in zip(orbit, orbit[1:]):
            image = tuple(int(x) for x in (-(M @ np.array(rs.roots[a]))))
            assert rs.index[image] == b


def test_classical_folding_is_public():
    import geomlie
    spec = geomlie.classical_folding("e6 : f4")
    assert (spec.source.label, spec.permutation, spec.target_name) == \
        ("E6", (3, 4, 1, 2, 5, 6), "F4")


def test_orbit_decomposition_rejects_unknown_operator():
    # "rhobar" is only the command-line alias of "coxeter_bar".
    with pytest.raises(ValueError, match="unknown operator"):
        orbit_decomposition("A2", "rhobar")


def test_fold_identity_involution():
    t = make_type("A2")
    spec = FoldingSpec(t, (1, 2), "A2")
    assert np.array_equal(fold(spec), cartan_matrix(t))


def test_fold_rejects_adjacent_orbit():
    # Swapping the two ends of A2 folds adjacent nodes: axiom (1) fails.
    with pytest.raises(ValueError):
        fold(FoldingSpec(make_type("A2"), (2, 1), "bad"))


def test_fold_rejects_non_automorphism():
    with pytest.raises(ValueError):
        fold(FoldingSpec(make_type("A3"), (2, 1, 3), "bad"))
    with pytest.raises(ValueError):
        fold(FoldingSpec(make_type("A3"), (1, 1, 3), "bad"))


def test_rootsystem_payload_schema():
    payload = rootsystem_payload(enumerate_roots("A2"))
    assert payload["type"] == "A2"
    assert payload["cartan"] == [[2, -1], [-1, 2]]
    assert sorted(payload["roots"]) == [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]
