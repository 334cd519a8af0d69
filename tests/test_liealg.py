"""Bracket table, Jacobi, Killing form, sl2 triples and the matrix model."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlie import _exact, cli, liealg
from geomlie._exact import is_nonsingular
from geomlie.liealg import (AlgebraElement, bracket, build, check_antisymmetry,
                            check_jacobi, check_sl2, export_structure_constants,
                            is_nondegenerate, killing_form,
                            load_structure_constants, n_sign, root_signs,
                            slk_model_check)
from geomlie.lattice import make_type, seifert_matrix
from geomlie.rootsys import enumerate_roots
from geomlie.verify import A2_TABLE, ALL_TYPE_LABELS

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
    # root_signs is the batched form of n_sign, zero off the summable pairs.
    t = make_type(label)
    rs = enumerate_roots(t)
    X = rs.coords
    N = root_signs(t)
    for a in range(len(rs)):
        for b in range(len(rs)):
            s = tuple(int(x) for x in (X[a] + X[b]))
            if s in rs.index:
                assert n_sign(t, rs.roots[a], rs.roots[b]) * \
                    n_sign(t, rs.roots[b], rs.roots[a]) == -1
                assert N[a, b] == n_sign(t, rs.roots[a], rs.roots[b])
            else:
                assert N[a, b] == 0


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


@st.composite
def algebra_elements(draw, dimension: int) -> AlgebraElement:
    terms = draw(st.dictionaries(st.integers(0, dimension - 1), st.integers(-3, 3),
                                 min_size=1, max_size=4))
    return AlgebraElement.from_dict(terms)


JACOBI_ALGEBRAS = {label: build(make_type(label)) for label in ("A3", "D4", "E6")}


@given(st.sampled_from(sorted(JACOBI_ALGEBRAS)), st.data())
def test_bracket_alternating_random(label, data):
    L = JACOBI_ALGEBRAS[label]
    x = data.draw(algebra_elements(L.dimension))
    assert bracket(L, x, x).is_zero


@given(st.sampled_from(sorted(JACOBI_ALGEBRAS)), st.data())
def test_bracket_bilinear(label, data):
    L = JACOBI_ALGEBRAS[label]
    x, y, z = (data.draw(algebra_elements(L.dimension)) for _ in range(3))
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
    assert type(report.triples_checked) is int
    assert not check_antisymmetry(L)


def _flipped_root_root_sign(L):
    """The coefficients of L's table with one [g_a, g_b] = N g_{a+b} negated."""
    T = L.table
    row = int(np.flatnonzero((T.i >= L.rank) & (T.j >= L.rank) & (T.m >= L.rank))[0])
    c = T.c.copy()
    c[row] = -c[row]
    return c


def test_jacobi_negative_control(with_coefficients):
    # One flipped structure-constant sign must surface as violations.
    L = build(make_type("A2"))
    L = with_coefficients(L, _flipped_root_root_sign(L))
    report = check_jacobi(L)
    assert len(report.violations) >= 1
    assert check_antisymmetry(L)


def reference_jacobi(L) -> tuple[int, list[tuple[int, int, int]]]:
    """Jacobi sweep over Python dicts: (classes with a term, violating classes).

    Every term [[x, y], z] on e_p is summed per (smallest rotation of
    (x, y, z), p); the violating classes are listed in ascending order.
    """
    T = L.table
    rows: dict[int, list[tuple[int, int, int]]] = {}
    for x, y, m, c in zip(T.i.tolist(), T.j.tolist(), T.m.tolist(), T.c.tolist()):
        rows.setdefault(x, []).append((y, m, c))
    sums: dict[tuple[tuple[int, int, int], int], int] = {}
    for x, outgoing in rows.items():
        for y, m, c1 in outgoing:
            for z, p, c2 in rows.get(m, ()):
                triple = min((x, y, z), (y, z, x), (z, x, y))
                sums[triple, p] = sums.get((triple, p), 0) + c1 * c2
    classes = {triple for triple, _ in sums}
    bad = sorted({triple for (triple, _), total in sums.items() if total})
    return len(classes), bad[:liealg.MAX_JACOBI_VIOLATIONS]


# The new coefficient from the old one; 2047 is the widest value check_jacobi packs.
CORRUPTIONS = {"flip": lambda c: -c, "double": lambda c: 2 * c,
               "plus-one": lambda c: c + 1, "wide": lambda c: 2047}
# A paired corruption changes a row (i, j, m) and its mirror (j, i, m) together,
# so the table stays antisymmetric and check_jacobi joins its i < j rows only.
PAIRED = {f"paired-{name}": change for name, change in CORRUPTIONS.items()}


@pytest.mark.parametrize("label", SMALL_LABELS)
@pytest.mark.parametrize("corruption", [None, *CORRUPTIONS, *PAIRED])
def test_jacobi_matches_reference_sweep(label, corruption, with_coefficients):
    L = build(make_type(label))
    T = L.table
    c = T.c.copy()
    rng = random.Random(f"{label}-{corruption}")
    if corruption in CORRUPTIONS:
        change = CORRUPTIONS[corruption]
        for row in rng.sample(range(len(c)), 3):
            c[row] = change(int(c[row]))
    elif corruption in PAIRED:
        for row in rng.sample(np.flatnonzero(T.i < T.j).tolist(), 3):
            mirror = (T.i == T.j[row]) & (T.j == T.i[row]) & (T.m == T.m[row])
            c[row] = PAIRED[corruption](int(c[row]))
            c[mirror] = -c[row]
    L = with_coefficients(L, c)
    report = check_jacobi(L)
    assert (report.triples_checked, report.violations) == reference_jacobi(L)
    if corruption in PAIRED:
        assert not check_antisymmetry(L)
    else:
        assert report.ok == (corruption is None)


def _algebra_from_rows(n: int, rows) -> liealg.LieAlgebra:
    """An algebra of dimension n whose table is made from ``rows`` (i, j, m, c)."""
    table = liealg.StructureTable.from_rows(n, *zip(*rows))
    return dataclasses.replace(build("A1"), table=table)


@st.composite
def antisymmetric_rows(draw) -> tuple[int, list[tuple[int, int, int, int]]]:
    """A sparse antisymmetric table: rows with i < j, each with its mirror (j, i, m, -c).

    A bracket may have several outputs, and coefficients may be zero.  A
    cancelling pair and a zero row at any (i, j, m) add nothing to the table.
    """
    n = draw(st.integers(2, 7))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    rows = []
    for x, y in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        for m in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)):
            c = draw(st.integers(-3, 3))
            rows += [(x, y, m, c), (y, x, m, -c)]
    x, y, m = (draw(st.integers(0, n - 1)) for _ in range(3))
    rows += [(x, y, m, 2), (x, y, m, -2), (y, x, m, 0)]
    return n, rows


@settings(max_examples=60)
@given(antisymmetric_rows(), st.data())
def test_jacobi_matches_reference_on_random_tables(table, data):
    # Small indices make terms with z = x or z = y common.  One lone row
    # with no mirror (a zero coefficient, or i = j, included) turns the
    # table into one whose Jacobi join reads every row.
    n, rows = table
    L = _algebra_from_rows(n, rows)
    report = check_jacobi(L)
    assert (report.triples_checked, report.violations) == reference_jacobi(L)
    taken = {row[:3] for row in rows}
    free = [(x, y, m) for x in range(n) for y in range(n) for m in range(n)
            if (x, y, m) not in taken]
    lone = (*data.draw(st.sampled_from(free)), data.draw(st.integers(-3, 3)))
    L = _algebra_from_rows(n, rows + [lone])
    report = check_jacobi(L)
    assert (report.triples_checked, report.violations) == reference_jacobi(L)


@pytest.mark.parametrize("label", sorted(JACOBI_ALGEBRAS))
def test_cli_jacobi_prints_reference_class_count(label, capsys):
    L = JACOBI_ALGEBRAS[label]
    classes, bad = reference_jacobi(L)
    assert not bad
    assert cli.main(["lie", label, "--check", "jacobi"]) == 0
    out = capsys.readouterr().out
    assert out == f"dimension {L.dimension}\n  jacobi ({classes} cyclic triple classes): ok\n"


def _refusal_peak(L) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="pack"):
            check_jacobi(L)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jacobi_refuses_dimension_past_1024_before_allocating():
    # E8's rows in a table of dimension 1025: a join of 1.17M terms, were it built.
    L = build(make_type("E8"))
    T = L.table
    L = dataclasses.replace(L, table=liealg.StructureTable.from_rows(1025, T.i, T.j, T.m, T.c))
    assert L.dimension == 1025
    assert _refusal_peak(L) < 1_000_000


def test_jacobi_refuses_unpackable_coefficient_before_allocating(with_coefficients):
    L = build(make_type("E8"))
    c = L.table.c.copy()
    c[0] = 2048
    assert _refusal_peak(with_coefficients(L, c)) < 1_000_000


def test_sign_cocycle():
    # eps(a, b) = (-1)^(b^t B a) is the bracket sign N(a, b).  Its symmetric
    # part is (-1)^((a, b)) and it is bimultiplicative (Kac, Infinite-
    # Dimensional Lie Algebras, 7.8; Frenkel-Kac 1980).  (a, b) comes from
    # the root list alone: 2 for b = a, -2 for b = -a, -1 when a + b is a
    # root, 1 when a - b is one, else 0.
    for label in ALL_TYPE_LABELS:
        rs = enumerate_roots(label)
        X = rs.coords
        eps = 1 - 2 * ((X @ seifert_matrix(label) @ X.T) % 2).T  # eps[a, b]
        total = X[:, None, :] + X[None, :, :]
        differ = X[:, None, :] - X[None, :, :]
        roots = set(rs.roots)
        summable = np.array([[tuple(v) in roots for v in row] for row in total.tolist()])
        opposite = np.array([[tuple(v) in roots for v in row] for row in differ.tolist()])
        same = np.eye(len(X), dtype=bool)
        negated = (total == 0).all(axis=2)
        form = 2 * same - 2 * negated - summable + opposite
        assert np.array_equal(eps * eps.T, 1 - 2 * (form % 2)), label
        a, b = np.nonzero(summable)
        ab = [rs.index[tuple(v)] for v in total[a, b].tolist()]
        assert np.array_equal(eps[ab, :], eps[a, :] * eps[b, :]), label


@settings(max_examples=40)
@given(st.sampled_from(sorted(JACOBI_ALGEBRAS)), st.data())
def test_jacobi_on_random_elements(label, data):
    # bracket reads the table pair by pair (row offsets), sharing nothing with
    # the sort kernel of check_jacobi.
    L = JACOBI_ALGEBRAS[label]
    x, y, z = (data.draw(algebra_elements(L.dimension)) for _ in range(3))
    cyclic = (bracket(L, bracket(L, x, y), z) + bracket(L, bracket(L, y, z), x)
              + bracket(L, bracket(L, z, x), y))
    assert cyclic.is_zero


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
    h = AlgebraElement.from_dict(dict(enumerate(gamma)))  # var(gamma) = sum gamma_i D_i
    from geomlie.lattice import pairing
    for r in rs.roots:
        g = L.root_gen(r)
        assert bracket(L, h, g) == g.scaled(pairing(L.lie_type, gamma, r))


@given(st.lists(st.integers(0, 12), max_size=30), st.lists(st.integers(0, 8), max_size=30))
def test_join_lists_every_matching_pair(left, right):
    # Left keys past 8 are absent on the right; either side may be empty.
    a, b = liealg._join(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))
    want = [(x, y) for x in range(len(left)) for y in range(len(right)) if left[x] == right[y]]
    assert list(zip(a.tolist(), b.tolist())) == want


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


def reference_sl2(L) -> list:
    """Roots a whose triple (g_a, g_{-a}, var(a)) breaks a law, three brackets per root."""
    bad = []
    for r in L.root_system.roots:
        e, f = L.root_gen(r), L.root_gen(tuple(-x for x in r))
        h = AlgebraElement.from_dict(dict(enumerate(r)))
        if (bracket(L, h, e) != e.scaled(2) or bracket(L, h, f) != f.scaled(-2)
                or bracket(L, e, f) != h.scaled(-1)):
            bad.append(r)
    return bad


@pytest.mark.parametrize("label", ALL_TYPE_LABELS)
def test_check_sl2_matches_bracket_reference(label):
    L = build(make_type(label))
    assert check_sl2(L) == reference_sl2(L) == []


def test_check_sl2_memory_on_largest_type():
    L = build(make_type("A31"))  # the largest type build accepts
    tracemalloc.start()
    try:
        assert check_sl2(L) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _sl2_rows(L) -> list[int]:
    """The rows check_sl2 reads: [D_i, g_b] and [g_a, g_{-a}]."""
    T, k, rs = L.table, L.rank, L.root_system
    partner = {k + i: k + rs.index[tuple(-x for x in r)] for i, r in enumerate(rs.roots)}
    return [row for row, (i, j) in enumerate(zip(T.i.tolist(), T.j.tolist()))
            if i < k <= j or partner.get(i) == j]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D4", "D5", "E6"])
def test_check_sl2_matches_reference_under_corruption(label):
    # Each trial changes one coefficient, or the output index, of one row
    # that the sl2 laws read; both paths must name the same roots.
    L = build(make_type(label))
    rows = _sl2_rows(L)
    rng = random.Random(f"sl2-{label}")
    failing = 0
    for _ in range(60):
        row = rng.choice(rows)
        c, m = L.table.c.copy(), L.table.m.copy()
        if rng.random() < 0.5:
            c[row] += rng.choice((-2, -1, 1, 2))
        else:
            m[row] = rng.choice([x for x in range(L.dimension) if x != m[row]])
        bad = _with_rows(L, L.table.i, L.table.j, m, c)
        got = check_sl2(bad)
        assert got == reference_sl2(bad)
        failing += bool(got)
    assert failing > 30


def test_slk_model_negative_control(with_coefficients):
    # One flipped root-root coefficient must break the matrix model.
    L = build(make_type("A3"))
    assert slk_model_check(L)
    assert not slk_model_check(with_coefficients(L, _flipped_root_root_sign(L)))


def _with_rows(L, i, j, m, c):
    """L with the structure-table rows (i, j, m, c)."""
    return dataclasses.replace(L, table=liealg.StructureTable.from_rows(L.dimension, i, j, m, c))


def test_slk_model_catches_a_dropped_row():
    # The commutator of E_01 and E_12 is E_02, so without the row
    # [g_a, g_b] -> g_{a+b} the table no longer gives it.
    L = build(make_type("A3"))
    T, k = L.table, L.rank
    a, b = (k + L.root_system.index[r] for r in ((1, 0, 0), (0, 1, 0)))
    keep = ~((T.i == a) & (T.j == b))
    assert np.count_nonzero(~keep) == 1
    assert slk_model_check(_with_rows(L, T.i, T.j, T.m, T.c))
    assert not slk_model_check(_with_rows(L, *(col[keep] for col in (T.i, T.j, T.m, T.c))))


def reference_slk_model(L) -> bool:
    """The dense matrix model: independent images, and [A_u, A_v] equal to the
    image of [e_u, e_v] read through bracket_basis, pair by pair."""
    k, n = L.rank, L.dimension
    images = []
    for idx in range(n):
        image = np.zeros((k + 1, k + 1), dtype=np.int64)
        if idx < k:
            image[idx, idx], image[idx + 1, idx + 1] = 1, -1
        else:
            root = L.root_system.roots[idx - k]
            support = [x for x, v in enumerate(root) if v]
            i, j = support[0], support[-1] + 1
            if sum(root) > 0:
                image[i, j] = 1
            else:
                image[j, i] = -1
        images.append(image)
    if rank_exact([image.ravel() for image in images]) < n:
        return False
    for u in range(n):
        for v in range(n):
            want = np.zeros((k + 1, k + 1), dtype=np.int64)
            for m, c in L.bracket_basis(u, v).terms:
                want += c * images[m]
            if not np.array_equal(images[u] @ images[v] - images[v] @ images[u], want):
                return False
    return True


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
def test_slk_model_matches_dense_reference_under_corruption(label):
    # Each trial changes one coefficient or output index, drops a row or adds one.
    L = build(make_type(label))
    assert slk_model_check(L) and reference_slk_model(L)
    rng = random.Random(f"slk-{label}")
    failing = 0
    for _ in range(30):
        i, j, m, c = (col.copy() for col in (L.table.i, L.table.j, L.table.m, L.table.c))
        row, kind = rng.randrange(len(c)), rng.choice(["c", "m", "drop", "add"])
        if kind == "c":
            c[row] += rng.choice((-2, -1, 1, 2))
        elif kind == "m":
            m[row] = rng.choice([x for x in range(L.dimension) if x != m[row]])
        elif kind == "drop":
            i, j, m, c = (np.delete(col, row) for col in (i, j, m, c))
        else:
            i, j, m = (np.r_[col, rng.randrange(L.dimension)] for col in (i, j, m))
            c = np.r_[c, rng.choice((-1, 1))]
        bad = _with_rows(L, i, j, m, c)
        got = slk_model_check(bad)
        assert got == reference_slk_model(bad)
        failing += not got
    assert failing > 20


def test_slk_model_catches_a_spurious_row():
    # D_1 and D_2 are diagonal, so their commutator is zero; a row
    # [D_1, D_2] -> g_a claims it is not.
    L = build(make_type("A3"))
    T = L.table
    assert not np.any((T.i == 0) & (T.j == 1))
    spurious = _with_rows(L, np.r_[T.i, 0], np.r_[T.j, 1], np.r_[T.m, L.rank], np.r_[T.c, 1])
    assert not slk_model_check(spurious)


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
    for label in ("A9", "D4"):
        with pytest.raises(ValueError, match=f"{label}: the traceless-matrix model covers"):
            slk_model_check(build(make_type(label)))


def test_export_round_trip(tmp_path):
    L = build(make_type("A1"))
    payload = _bracket_payload(L)
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
    assert again == _bracket_payload(L)
    assert again["dimension"] == 78
    assert len(again["basis"]) == 78


def test_export_csv():
    L = build(make_type("A2"))
    buf = io.StringIO()
    export_structure_constants(L, buf, fmt="csv")
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "i,j,terms"
    assert len(lines) > 1


def _csv_oracle(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "terms"])
    for row in payload["brackets"]:
        writer.writerow([row["i"], row["j"], ";".join(f"{m}:{c}" for m, c in row["terms"])])
    return buf.getvalue()


def _bracket_payload(L) -> dict:
    """Test-only reference payload: bracket_basis over every pair i < j."""
    basis = [f"h{a + 1}" for a in range(L.rank)]
    basis += ["g[" + ",".join(map(str, r)) + "]" for r in L.root_system.roots]
    brackets = []
    for i in range(L.dimension):
        for j in range(i + 1, L.dimension):
            terms = L.bracket_basis(i, j).terms
            if terms:
                brackets.append({"i": i, "j": j, "terms": [list(term) for term in terms]})
    return {"type": L.lie_type.label, "dimension": L.dimension, "basis": basis,
            "brackets": brackets}


def _export_algebra(label):
    if label == "A1-empty":  # no i < j rows: json.dumps writes "brackets": []
        e = np.array([], dtype=np.int64)
        table = liealg.StructureTable.from_rows(3, e, e, e, e)
        return dataclasses.replace(build("A1"), table=table)
    return build(make_type(label))


@pytest.mark.parametrize("label", [*ALL_TYPE_LABELS, "A31", "A1-empty"])
def test_export_bytes_match_stdlib_writers(label, tmp_path):
    # The writer builds its text from the table columns; the reference reads
    # the algebra pair by pair and the json and csv modules render it.  A31
    # (dimension 1023) has four-digit indices; A1-empty has no bracket.
    L = _export_algebra(label)
    payload = _bracket_payload(L)
    json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    export_structure_constants(L, str(json_path))
    export_structure_constants(L, str(csv_path), fmt="csv")
    want_json = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    assert json_path.read_bytes() == want_json.encode("utf-8")
    assert csv_path.read_bytes() == _csv_oracle(payload).encode("utf-8")


@given(st.sampled_from(ALL_TYPE_LABELS))
def test_export_load_round_trip(tmp_path_factory, label):
    # Path objects for both sinks; the CSV is parsed back by hand.
    L = build(make_type(label))
    payload = _bracket_payload(L)
    folder = tmp_path_factory.mktemp(label)
    json_path, csv_path = folder / "out.json", folder / "out.csv"
    export_structure_constants(L, json_path)
    assert load_structure_constants(json_path) == payload
    export_structure_constants(L, csv_path, fmt="csv")
    header, *lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert header == "i,j,terms"
    parsed = []
    for line in lines:
        i, j, terms = line.split(",")
        parsed.append((int(i), int(j), [[int(x) for x in term.split(":")]
                                        for term in terms.split(";")]))
    assert parsed == [(b["i"], b["j"], b["terms"]) for b in payload["brackets"]]


def test_export_unknown_format_creates_no_file(tmp_path):
    path = tmp_path / "a2.xml"
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        export_structure_constants(build(make_type("A2")), str(path), fmt="xml")
    assert not path.exists()
