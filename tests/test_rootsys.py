"""Root enumeration and lookup, monodromy, orbits and foldings."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import primefactors
from sympy.liealgebras.cartan_matrix import CartanMatrix
from sympy.liealgebras.root_system import RootSystem as SympyRootSystem

from geomlie import rootsys
from geomlie.lattice import cartan_matrix, make_type, projective_basis, seifert_matrix
from geomlie.rootsys import (CLASSICAL_FOLDINGS, FoldingSpec, coxeter_matrix,
                             enumerate_roots, fold, monodromy_matrix,
                             orbit_decomposition, rootsystem_payload, sT_matrices,
                             summable_pairs)
from geomlie.verify import PRINTED_MONODROMY, expected_folded_cartan, expected_orbit_table

ALL_LABELS = [f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(3, 9)] + \
    ["E6", "E7", "E8"]
# Past the paper's ranks: c = -B^{-1}B^t against the reflection product.
WIDE_LABELS = [f"A{k}" for k in range(9, 17)] + [f"D{k}" for k in range(9, 17)]
# Every type the Lie layer builds.
LIE_LABELS = [f"A{k}" for k in range(1, 32)] + [f"D{k}" for k in range(3, 23)] + \
    ["E6", "E7", "E8"]


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_counts(label):
    # sympy's root systems share no code with the enumeration or the count formula.
    assert len(enumerate_roots(label)) == len(SympyRootSystem(label).all_roots())


def _sympy_cartan(label: str) -> np.ndarray:
    """sympy's Cartan matrix, entry [i, j] = 2 (a_i, a_j) / (a_j, a_j).

    sympy 1.14 cannot build A1 (its 1 x 1 matrix is indexed at [0, 1]) nor
    C_n for n < 3.  A1 is the Gram matrix of sympy's simple root; C2 is the
    transpose of sympy's B2, as C_n is of B_n for every n sympy builds
    (checked in :func:`test_sympy_c_is_transposed_b`).
    """
    if label == "A1":
        root = np.array(SympyRootSystem("A1").simple_roots()[1])
        return np.array([[root @ root]])
    if label == "C2":
        return _sympy_cartan("B2").T
    return np.array(CartanMatrix(label).tolist(), dtype=np.int64)


def _relabels(A, B) -> bool:
    """True when B[i, j] = A[p(i), p(j)] for some permutation p of the nodes."""
    A, B = np.asarray(A), np.asarray(B)
    k = len(A)

    def extend(p):
        i = len(p)
        return i == k or any(
            extend(p + [j]) for j in range(k)
            if j not in p and A[j, j] == B[i, i]
            and all(A[p[m], j] == B[m, i] and A[j, p[m]] == B[i, m] for m in range(i)))

    return A.shape == B.shape and extend([])


def test_sympy_c_is_transposed_b():
    for n in range(3, 8):
        assert np.array_equal(_sympy_cartan(f"C{n}"), _sympy_cartan(f"B{n}").T)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_cartan_matches_sympy(label):
    # sympy numbers the nodes its own way: equal up to a simultaneous relabelling.
    assert _relabels(cartan_matrix(label), _sympy_cartan(label))


@pytest.mark.parametrize("name", CLASSICAL_FOLDINGS)
def test_folded_cartan_is_sympy_transposed(name):
    # The hand-folded matrices use the transpose of sympy's convention.  The
    # transpose is a relabelling in rank 2 and for F4, so B_n and C_n with
    # n >= 3 are the foldings that pin it.
    target = name.partition(":")[2]
    want, sympy_matrix = expected_folded_cartan(name), _sympy_cartan(target)
    assert _relabels(want, sympy_matrix.T)
    if not _relabels(sympy_matrix, sympy_matrix.T):
        assert not _relabels(want, sympy_matrix)


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


def reflection_closure(label) -> np.ndarray:
    """The roots by closing the simple basis under its reflections, sorted (the
    enumeration before the by-height one): each round reflects the frontier
    in every simple root and keeps the images whose byte keys are new."""
    t = make_type(label)
    k, C = t.rank, cartan_matrix(t)
    eye = np.eye(k, dtype=np.int64)
    X = frontier = np.concatenate([eye, -eye])
    while len(frontier):
        images = frontier[:, None, :] - (frontier @ C)[:, :, None] * eye
        pool = np.concatenate([X, images.reshape(-1, k)])
        _, first = np.unique(rootsys._keys(pool), return_index=True)
        X, frontier = pool[first], pool[first[first >= len(X)]]
    return X


@pytest.mark.parametrize("label", LIE_LABELS)
def test_roots_by_height_equal_the_reflection_closure(label):
    assert np.array_equal(enumerate_roots(label).coords, reflection_closure(label))


@pytest.mark.parametrize("label", ["A160", "D128"])
def test_largest_accepted_types_enumerate_in_bounded_time_and_memory(label):
    # The two largest types under MAX_ROOT_ENTRIES.  The reflection closure
    # took 14.5 s and 264 MB on A160 and 12.1 s and 142 MB on D128.  By
    # height they take about 0.4 s, 1.5 s traced, and peak near 104 MB: the
    # 33 MB int64 root array, its rows as Python tuples and the list that
    # ``tolist`` makes on the way.
    t = make_type(label)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rs = enumerate_roots.__wrapped__(t)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rs) == t.root_count
    assert rs.coords[-1].sum() == t.coxeter_number - 1  # the highest root
    assert elapsed < 6
    assert peak < 120_000_000


def test_each_orbit_decomposition_is_built_once_per_verify():
    # A fresh interpreter, so the memo starts empty: every (type, operator)
    # that run_verify() reads is decomposed once, and its step stays read-only.
    script = ("import collections\n"
              "from geomlie import rootsys\n"
              "from geomlie.verify import run_verify\n"
              "built, init = collections.Counter(), rootsys.OrbitDecomposition.__init__\n"
              "def spy(self, *args, **kwargs):\n"
              "    init(self, *args, **kwargs)\n"
              "    built[self.lie_type.label, self.operator] += 1\n"
              "rootsys.OrbitDecomposition.__init__ = spy\n"
              "run_verify()\n"
              "steps = [rootsys.orbit_decomposition(lab, op).step for lab, op in built]\n"
              "print(len(built), set(built.values()), any(s.flags.writeable for s in steps))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(rootsys.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == f"{2 * len(ALL_LABELS)} {{1}} False\n"


def test_orbit_decomposition_is_shared_per_type_and_operator():
    for op in ("monodromy", "coxeter_bar"):
        dec = orbit_decomposition("D5", op)
        assert orbit_decomposition(make_type("d5"), op) is dec
        assert dec.operator == op
        with pytest.raises(ValueError):
            dec.step[0] = 1
    assert orbit_decomposition("D5") is orbit_decomposition("D5", "monodromy")


@pytest.mark.parametrize("label", LIE_LABELS)
def test_locate_matches_index(label):
    rs = enumerate_roots(label)
    assert rs.locate(rs.coords).tolist() == [rs.index[r] for r in rs.roots]
    assert rs.locate(-rs.coords).tolist() == [rs.index[tuple(-x for x in r)] for r in rs.roots]
    # Negation reverses the lexicographic order.
    assert rs.locate(-rs.coords).tolist() == list(range(len(rs)))[::-1]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_summable_pairs_match_brute_force(label):
    # Every ordered pair whose sum is in the root index, row-major.
    rs = enumerate_roots(label)
    want = [(a, b) for a, x in enumerate(rs.roots) for b, y in enumerate(rs.roots)
            if tuple(p + q for p, q in zip(x, y)) in rs.index]
    assert list(zip(*(v.tolist() for v in summable_pairs(label)[:2]))) == want


@pytest.mark.parametrize("label", LIE_LABELS)
def test_summable_pair_count(label):
    # Each root has exactly 2h - 4 summable partners, so the Lie table has
    # |Phi|(2h - 4) rows [g_a, g_b] -> g_{a+b}.
    t = make_type(label)
    columns = summable_pairs(t)
    assert len(columns) == 4
    assert {len(col) for col in columns} == {t.root_count * (2 * t.coxeter_number - 4)}
    assert not any(col.flags.writeable for col in columns)


def test_summable_pairs_need_a_free_coxeter_action(monkeypatch):
    # The pairs are spread along the orbits of c.  The A5 monodromy -c is
    # not free (its diameter orbits close after 3 steps), so spreading along
    # it must be refused by name, not give a short or repeated pair list.
    real = rootsys.orbit_decomposition
    monkeypatch.setattr(rootsys, "orbit_decomposition", lambda t, op: real(t, "monodromy"))
    with pytest.raises(RuntimeError, match="A5: c does not act freely in 5 orbits"):
        summable_pairs.__wrapped__(make_type("A5"))


def test_summable_pairs_never_form_the_whole_pairing():
    # A60 has 3660 roots, so its |Phi| x |Phi| int64 pairing alone is 107 MB;
    # the search pairs only one root per Coxeter orbit with every root.
    n = len(enumerate_roots("A60"))  # the roots, outside the traced region
    tracemalloc.start()
    try:
        summable_pairs.__wrapped__(make_type("A60"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@given(st.sampled_from(ALL_LABELS), st.data())
def test_weyl_words_preserve_pairing_and_roots(label, data):
    # Reflections built here, s_i(v) = v - (Cv)_i e_i, share no code with the
    # enumeration: any word W in them preserves C and permutes the roots.
    t = make_type(label)
    C = cartan_matrix(t)
    word = data.draw(st.lists(st.integers(0, t.rank - 1), max_size=20))
    W = np.eye(t.rank, dtype=np.int64)
    for i in word:
        s = np.eye(t.rank, dtype=np.int64)
        s[i] -= C[i]
        W = W @ s
    assert np.array_equal(W.T @ C @ W, C)
    rs = enumerate_roots(t)
    assert sorted(rs.locate(rs.coords @ W.T).tolist()) == list(range(len(rs)))


# (257, 0) has the byte key of the root (1, 0); (5, 5) and (-5, 0) sort past either end.
@pytest.mark.parametrize("label, vector", [("A2", (257, 0)), ("A2", (2, 0)), ("A2", (5, 5)),
                                           ("A2", (-5, 0)), ("D4", (0, 0, 0, 0))], ids=str)
def test_locate_rejects_non_roots(label, vector):
    rs = enumerate_roots(label)
    with pytest.raises(RuntimeError, match=rf"{label}: \(.*\) is not a root"):
        rs.locate(np.vstack([rs.coords[:3], vector]))


def test_root_coords_are_read_only():
    X = enumerate_roots("D4").coords
    assert X.dtype == np.int64
    with pytest.raises(ValueError):
        X[0, 0] = 7
    rs = enumerate_roots("A2")
    assert rs == enumerate_roots("A2") == dataclasses.replace(rs, coords=rs.coords.copy())


def test_coxeter_matrix_orders():
    # By matrix powers: c^h = I and c^(h/p) != I for every prime p | h.
    assert coxeter_matrix("A1").tolist() == [[-1]]
    assert (make_type("E8").coxeter_number, make_type("D5").coxeter_number) == (30, 8)
    for label in ALL_LABELS:
        t = make_type(label)
        c, h, eye = coxeter_matrix(t), t.coxeter_number, np.eye(t.rank, dtype=np.int64)
        assert np.array_equal(np.linalg.matrix_power(c, h), eye)
        for p in primefactors(h):
            assert not np.array_equal(np.linalg.matrix_power(c, h // p), eye)


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


@pytest.mark.parametrize("label", ALL_LABELS + WIDE_LABELS + ["A64", "D40"])
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


@pytest.mark.parametrize("label", ALL_LABELS + WIDE_LABELS)
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
        dec = orbit_decomposition(label, operator)
        assert dec.operator_order == 6
        assert sorted(len(o) for o in dec.orbits) == [3, 3, 6, 6, 6, 6]
        assert not dec.is_free
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
