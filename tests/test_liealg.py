"""Bracket table, Jacobi, Killing form, sl2 triples and the matrix model."""

from __future__ import annotations

import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlie import _exact, liealg
from geomlie._exact import is_nonsingular
from geomlie.liealg import (AlgebraElement, bracket, build, check_antisymmetry,
                            check_jacobi, export_structure_constants,
                            is_nondegenerate, killing_form,
                            load_structure_constants, n_sign, sl2_triple,
                            slk_model_check, structure_constants_payload)
from geomlie.lattice import make_type
from geomlie.rootsys import enumerate_roots
from geomlie.verify import A2_TABLE

SMALL_LABELS = ["A1", "A2", "A3", "A4", "D4", "D5"]


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


def rank_exact(m) -> int:
    """Rank of an integer matrix over the rationals (Gauss-Jordan on Fractions)."""
    a = [[Fraction(int(x)) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def test_n_sign_examples():
    assert n_sign("A2", (1, 0), (0, 1)) == 1
    assert n_sign("A2", (0, 1), (1, 0)) == -1
    with pytest.raises(ValueError):
        n_sign("A2", (2, 0), (0, 1))


@pytest.mark.parametrize("label", ["A2", "A4", "D4", "E6"])
def test_n_sign_antisymmetric_on_summable_pairs(label):
    t = make_type(label)
    rs = enumerate_roots(t)
    X = rs.coords
    for a in range(len(rs)):
        for b in range(len(rs)):
            s = tuple(int(x) for x in (X[a] + X[b]))
            if s in rs.index:
                assert n_sign(t, rs.roots[a], rs.roots[b]) * \
                    n_sign(t, rs.roots[b], rs.roots[a]) == -1


def test_build_dimensions():
    assert build(make_type("E8")).dimension == 248
    assert build(make_type("E7")).dimension == 133
    assert build(make_type("E6")).dimension == 78
    assert build(make_type("A1")).dimension == 3


def test_bracket_examples_a2():
    L = build(make_type("A2"))
    g1 = L.root_gen((1, 0))
    gm1 = L.root_gen((-1, 0))
    d1 = L.cartan_gen(1)
    # [g_a, g_{-a}] = -var(a)
    assert bracket(L, g1, gm1) == -d1
    # [D1, g_a] = 2 g_a
    assert bracket(L, d1, g1) == g1.scaled(2)
    # [D1, g_b] = -g_b for the other simple root
    g2 = L.root_gen((0, 1))
    assert bracket(L, d1, g2) == -g2
    # [g_a, g_b] = g_{a+b}
    assert bracket(L, g1, g2) == L.root_gen((1, 1))


def test_bracket_alternating_random():
    L = build(make_type("D4"))
    rng = random.Random(5)
    for _ in range(20):
        terms = {rng.randrange(L.dimension): rng.randint(-3, 3) for _ in range(4)}
        x = AlgebraElement.from_dict(terms)
        assert bracket(L, x, x).is_zero


def test_bracket_bilinear():
    L = build(make_type("A3"))
    rng = random.Random(9)
    for _ in range(10):
        x = AlgebraElement.from_dict({rng.randrange(L.dimension): rng.randint(-2, 2)
                                      for _ in range(3)})
        y = AlgebraElement.from_dict({rng.randrange(L.dimension): rng.randint(-2, 2)
                                      for _ in range(3)})
        z = AlgebraElement.from_dict({rng.randrange(L.dimension): rng.randint(-2, 2)
                                      for _ in range(3)})
        assert bracket(L, x + y, z) == bracket(L, x, z) + bracket(L, y, z)
        assert bracket(L, z, x + y) == bracket(L, z, x) + bracket(L, z, y)


def test_a2_bracket_table_verbatim():
    L = build(make_type("A2"))
    sym = {"W1": L.cartan_gen(1), "W2": L.cartan_gen(2),
           "X1": L.root_gen((1, 0)), "X2": L.root_gen((0, 1)), "X3": L.root_gen((1, 1)),
           "Y1": L.root_gen((-1, 0)), "Y2": L.root_gen((0, -1)), "Y3": L.root_gen((-1, -1))}
    for lhs, rhs, expect in A2_TABLE:
        want = AlgebraElement(())
        for name, coef in expect.items():
            want = want + sym[name].scaled(coef)
        assert bracket(L, sym[lhs], sym[rhs]) == want, (lhs, rhs)


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_jacobi_clean(label):
    L = build(make_type(label))
    report = check_jacobi(L)
    assert report.ok
    assert not check_antisymmetry(L)


def _flip_root_root_sign(L):
    """Negate one stored [g_a, g_b] = N g_{a+b} coefficient in place."""
    T = L.table
    row = int(np.flatnonzero((T.i >= L.rank) & (T.j >= L.rank) & (T.m >= L.rank))[0])
    T.c[row] = -T.c[row]


def test_jacobi_negative_control():
    # One flipped structure-constant sign must surface as violations.
    L = build(make_type("A2"))
    _flip_root_root_sign(L)
    report = check_jacobi(L)
    assert len(report.violations) >= 1
    assert check_antisymmetry(L)


def test_root_space_grading():
    # Every stored [g_a, g_b] lands in the (a+b) component with the sign
    # N(a, b), or in the Cartan part as -var(a) when b = -a.
    t = make_type("D4")
    L = build(t)
    rs = L.root_system
    k = L.rank
    T = L.table
    on_roots = (T.i >= k) & (T.j >= k)
    seen = set()
    for i, j, m, c in zip(*(col[on_roots].tolist() for col in (T.i, T.j, T.m, T.c))):
        a, b = rs.roots[i - k], rs.roots[j - k]
        total = tuple(x + y for x, y in zip(a, b))
        if m < k:
            assert all(x == 0 for x in total)
            assert c == -a[m] != 0
        else:
            assert rs.roots[m - k] == total
            assert c == n_sign(t, a, b)
        seen.add((i, j))
    # ... and every pair with a root or zero sum has its rows.
    for i, a in enumerate(rs.roots):
        for j, b in enumerate(rs.roots):
            total = tuple(x + y for x, y in zip(a, b))
            summable = total in rs.index or all(x == 0 for x in total)
            assert ((k + i, k + j) in seen) == summable
            assert L.bracket_basis(k + i, k + j).is_zero != summable


def test_pair_summing_to_root_has_pairing_minus_one():
    from geomlie.lattice import pairing
    for label in ("A3", "D5", "E6"):
        t = make_type(label)
        rs = enumerate_roots(t)
        X = rs.coords
        for a in range(len(rs)):
            for b in range(len(rs)):
                total = tuple(int(x) for x in (X[a] + X[b]))
                if total in rs.index:
                    assert pairing(t, rs.roots[a], rs.roots[b]) == -1


def test_ad_eigenvalues_on_root_generators():
    L = build(make_type("A3"))
    rs = L.root_system
    gamma = rs.roots[2]
    h = L.cartan_element(gamma)
    from geomlie.lattice import pairing
    for r in rs.roots:
        g = L.root_gen(r)
        assert bracket(L, h, g) == g.scaled(pairing(L.lie_type, gamma, r))


def test_killing_a1_value():
    L = build(make_type("A1"))
    K = killing_form(L)
    # basis order: D1, g_{-a}, g_{+a}; ad(D1) = diag(0, -2, 2)
    assert K[0, 0] == 8
    assert np.array_equal(K, K.T)
    assert is_nondegenerate(K)


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_killing_nondegenerate_and_cartan_rank(label):
    t = make_type(label)
    L = build(t)
    K = killing_form(L)
    assert np.array_equal(K, K.T)
    assert is_nondegenerate(K)
    assert rank_exact(K[: t.rank, : t.rank]) == t.rank


def test_killing_matches_slow_trace():
    # Independent slow path: materialize ad matrices via bracket_basis.
    L = build(make_type("A2"))
    n = L.dimension
    ads = []
    for u in range(n):
        m = np.zeros((n, n), dtype=np.int64)
        for w in range(n):
            for target, coef in L.bracket_basis(u, w).terms:
                m[target, w] = coef
        ads.append(m)
    K = killing_form(L)
    for u in range(n):
        for v in range(n):
            assert K[u, v] == np.trace(ads[u] @ ads[v])


def test_sl2_triples():
    for label in ("A1", "A3", "D4", "E6"):
        L = build(make_type(label))
        for r in L.root_system.roots:
            e, f, h = sl2_triple(L, r)
            neg = tuple(-x for x in r)
            e2, f2, h2 = sl2_triple(L, neg)
            assert (e2, f2) == (f, e)
            assert h2 == -h


def test_sl2_rejects_non_root():
    L = build(make_type("A2"))
    with pytest.raises(ValueError):
        sl2_triple(L, (2, 0))


def test_slk_model_negative_control(monkeypatch):
    # One flipped root-root coefficient must break the matrix model.
    real_build = liealg.build

    def corrupted(t):
        L = real_build(t)
        _flip_root_root_sign(L)
        return L

    monkeypatch.setattr(liealg, "build", corrupted)
    assert not slk_model_check(3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=4),
       st.booleans())
def test_gram_independence_agrees_with_rank_exact(rows, dependent):
    # slk_model_check tests row independence as a nonsingular Gram matrix.
    if dependent:
        rows = rows + [[2 * x - y for x, y in zip(rows[0], rows[-1])]]
    F = np.array(rows, dtype=object)
    assert is_nonsingular(F @ F.T) == (rank_exact(F) == len(rows))


def test_gram_independence_fallback(monkeypatch):
    # Every certificate prime divides these Gram determinants, so det_exact decides.
    calls = []
    real = _exact.det_exact
    monkeypatch.setattr(_exact, "det_exact", lambda m: calls.append(1) or real(m))
    p = math.prod(_exact._CERT_PRIMES)
    for rows, independent in (([[p]], True), ([[p, 0], [0, 2 * p]], True),
                              ([[p, 2 * p]] * 2, False)):
        F = np.array(rows, dtype=object)
        assert is_nonsingular(F @ F.T) == independent
    assert len(calls) == 3


def test_slk_model_range():
    with pytest.raises(ValueError):
        slk_model_check(9)


def test_export_round_trip(tmp_path):
    L = build(make_type("A1"))
    payload = structure_constants_payload(L)
    assert payload["dimension"] == 3
    assert len(payload["basis"]) == 3
    assert len(payload["brackets"]) == 3  # three nonzero i<j brackets
    path = tmp_path / "a1.json"
    export_structure_constants(L, str(path))
    again = load_structure_constants(str(path))
    assert again == json.loads(json.dumps(payload))
    # byte-identical re-export
    path2 = tmp_path / "a1b.json"
    export_structure_constants(L, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_export_e6_reimports_equal(tmp_path):
    L = build(make_type("E6"))
    path = tmp_path / "e6.json"
    export_structure_constants(L, str(path))
    again = load_structure_constants(str(path))
    assert again == structure_constants_payload(L)
    assert again["dimension"] == 78
    assert len(again["basis"]) == 78


def test_export_csv():
    L = build(make_type("A2"))
    buf = io.StringIO()
    export_structure_constants(L, buf, fmt="csv")
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,j,terms"
    assert len(lines) > 1
