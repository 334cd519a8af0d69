"""Bracket table, Jacobi, Killing form, sl2 triples and the matrix model."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import tracemalloc
from collections import Counter
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
                            load_structure_constants, n_sign,
                            slk_model_check)
from geomlie.lattice import make_type, seifert_matrix
from geomlie.rootsys import enumerate_roots, orbit_decomposition, summable_pairs
from geomlie.verify import A2_TABLE, ALL_TYPE_LABELS, CRITERIA

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


@pytest.mark.parametrize("label", ALL_TYPE_LABELS)
def test_n_sign_antisymmetric_on_summable_pairs(label):
    # summable_pairs spreads the pairs of one root per Coxeter orbit along
    # the orbits; here every ordered pair of roots is tried.  Its pairs are
    # the brute-force ones in row-major order, each with the index of its sum
    # in rs.index and the parity behind n_sign.  build's [g_a, g_b] -> g_{a+b}
    # rows, in the table's (i, j, m) order, are the same pairs with the
    # coefficient n_sign(a, b).
    t = make_type(label)
    rs = enumerate_roots(t)
    T, k = build(t).table, t.rank
    onto_roots = (T.i >= k) & (T.j >= k) & (T.m >= k)
    rows = zip(*(col[onto_roots].tolist() for col in (T.i, T.j, T.m, T.c)))
    listed = zip(*(col.tolist() for col in summable_pairs(t)))
    for a, x in enumerate(rs.roots):
        for b, y in enumerate(rs.roots):
            total = rs.index.get(tuple(p + q for p, q in zip(x, y)))
            if total is not None:
                sign = n_sign(t, x, y)
                assert sign * n_sign(t, y, x) == -1
                assert next(listed) == (a, b, total, (1 - sign) // 2)
                assert next(rows) == (k + a, k + b, k + total, sign)
    assert next(listed, None) is None and next(rows, None) is None


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


def _bracket_oracle(T, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """[x, y] summed over a dict of the table's rows, keyed by (i, j)."""
    rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j, m, c in zip(T.i.tolist(), T.j.tolist(), T.m.tolist(), T.c.tolist()):
        rows.setdefault((i, j), []).append((m, c))
    acc: dict[int, int] = {}
    for i, ci in x.terms:
        for j, cj in y.terms:
            for m, c in rows.get((int(i), int(j)), ()):
                acc[m] = acc.get(m, 0) + ci * cj * c
    return AlgebraElement.from_dict(acc)


def _writable(L, data) -> liealg.LieAlgebra:
    """A copy of L whose table columns are writable copies, with drawn rows given new m and c.

    The pairs (i, j) and the row index stay, so the rows of each bracket
    are where ``start`` says, but an output may repeat within a bracket and
    a coefficient may be zero: the table is not canonical.
    """
    T = L.table
    columns = {name: getattr(T, name).copy() for name in ("i", "j", "m", "c", "start")}
    for row in data.draw(st.lists(st.integers(0, len(T.c) - 1), max_size=8)):
        columns["m"][row] = data.draw(st.integers(0, T.n - 1))
        columns["c"][row] = data.draw(st.integers(-5, 5))
    return dataclasses.replace(L, table=liealg.StructureTable(T.n, **columns))


# An index as a Python int, a numpy int or an integral float.
INDEX_KINDS = [int, np.int64, np.int32, float]


@given(st.sampled_from(["A1", "A2", *sorted(JACOBI_ALGEBRAS)]), st.booleans(),
       st.sampled_from(INDEX_KINDS), st.data())
def test_bracket_matches_dict_oracle(label, corrupt, kind, data):
    L = build(make_type(label))
    if corrupt:
        L = _writable(L, data)
    x, y = (data.draw(algebra_elements(L.dimension)) for _ in range(2))
    want = _bracket_oracle(L.table, x, y)
    x, y = (AlgebraElement(tuple((kind(i), c) for i, c in e.terms)) for e in (x, y))
    assert bracket(L, x, y) == want
    i, j = (data.draw(st.integers(0, L.dimension - 1)) for _ in range(2))
    want = _bracket_oracle(L.table, AlgebraElement(((i, 1),)), AlgebraElement(((j, 1),)))
    assert L.bracket_basis(kind(i), kind(j)) == want


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("bad, message", [
    (-1, "basis index out of range"), (np.int64(-1), "basis index out of range"),
    ("n", "basis index out of range"), (1.5, "expected integers")],
    ids=["minus-one", "numpy-minus-one", "n", "one-and-a-half"])
def test_bracket_refuses_a_bad_index(side, bad, message):
    # A negative index must not wrap round to another bracket's rows.
    L = build(make_type("A2"))
    bad = L.dimension if bad == "n" else bad
    good, wrong = AlgebraElement(((0, 1),)), AlgebraElement(((bad, 1),))
    args = (wrong, good) if side == "x" else (good, wrong)
    with pytest.raises(ValueError, match=message):
        bracket(L, *args)
    with pytest.raises(ValueError, match=message):
        L.bracket_basis(*(e.terms[0][0] for e in args))


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
    # One flipped structure-constant sign breaks antisymmetry, which fails
    # the table before any Jacobi term is summed; flipping its mirror too
    # keeps the table antisymmetric and leaves Jacobi violations.
    L = build(make_type("A2"))
    T = L.table
    c = _flipped_root_root_sign(L)
    report = check_jacobi(with_coefficients(L, c))
    assert (report.ok, report.antisymmetric, report.violations) == (False, False, [])
    row = int(np.flatnonzero(c != T.c)[0])
    c[(T.i == T.j[row]) & (T.j == T.i[row]) & (T.m == T.m[row])] *= -1
    report = check_jacobi(with_coefficients(L, c))
    assert report.antisymmetric and len(report.violations) >= 1


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


def reference_generator_sweep(L, seeds) -> tuple[int, list[tuple[int, int, int]]]:
    """J(s, y, z) by the textbook formula, for s in ``seeds`` and y < z, over Python dicts.

    J(s, y, z) = [[s, y], z] + [[y, z], s] + [[z, s], y], each bracket read
    row by row.  Returns (how many (s, y, z) have a term, the smallest
    rotations of the violated ones, ascending).
    """
    T = L.table
    rows: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x, y, m, c in zip(T.i.tolist(), T.j.tolist(), T.m.tolist(), T.c.tolist()):
        rows.setdefault((x, y), []).append((m, c))
    checked, bad = 0, set()
    for s in seeds:
        for y in range(L.dimension):
            for z in range(y + 1, L.dimension):
                total: dict[int, int] = {}
                for u, v, w in ((s, y, z), (y, z, s), (z, s, y)):
                    for m, c1 in rows.get((u, v), ()):
                        for p, c2 in rows.get((m, w), ()):
                            total[p] = total.get(p, 0) + c1 * c2
                checked += bool(total)
                if any(total.values()):
                    bad.add(min((s, y, z), (y, z, s), (z, s, y)))
    return checked, sorted(bad)[:liealg.MAX_JACOBI_VIOLATIONS]


def assert_reference_verdict(L, report):
    """The report's verdict is the exhaustive sweep's, and each violation one of its classes.

    The count and the violations are the textbook sweep's over the seeds
    check_jacobi swept, and the report says whether the lift was certified.
    """
    _, bad = reference_jacobi(L)
    antisymmetric = not check_antisymmetry(L)
    assert report.antisymmetric == antisymmetric
    assert report.ok == (antisymmetric and not bad)
    assert set(report.violations) <= set(bad)
    if antisymmetric:
        seeds, certified = liealg._jacobi_seeds(L)
        assert report.lift_certified == certified
        assert (report.triples_checked, report.violations) == \
            reference_generator_sweep(L, seeds.tolist())
    else:
        assert (report.triples_checked, report.violations, report.lift_certified) == (0, [], False)


# The new coefficient from the old one.
CORRUPTIONS = {"flip": lambda c: -c, "double": lambda c: 2 * c,
               "plus-one": lambda c: c + 1, "wide": lambda c: 2047, "zero": lambda c: 0}
# A paired corruption changes a row (i, j, m) and its mirror (j, i, m) together,
# so the table stays antisymmetric and check_jacobi sums its terms.
PAIRED = {f"paired-{name}": change for name, change in CORRUPTIONS.items()}


def _paired_change(L, rows, change):
    """The coefficients of L's table with each of ``rows`` changed and its mirror set to match."""
    T = L.table
    c = T.c.copy()
    for row in rows:
        mirror = (T.i == T.j[row]) & (T.j == T.i[row]) & (T.m == T.m[row])
        c[row] = change(int(c[row]))
        c[mirror] = -c[row]
    return c


def _corrupted(label, corruption, with_coefficients):
    """The algebra of ``label`` with three rows changed by ``corruption`` (None: unchanged)."""
    L = build(make_type(label))
    T = L.table
    c = T.c.copy()
    rng = random.Random(f"{label}-{corruption}")
    if corruption in CORRUPTIONS:
        change = CORRUPTIONS[corruption]
        for row in rng.sample(range(len(c)), 3):
            c[row] = change(int(c[row]))
    elif corruption in PAIRED:
        c = _paired_change(L, rng.sample(np.flatnonzero(T.i < T.j).tolist(), 3), PAIRED[corruption])
    return with_coefficients(L, c)


@pytest.mark.parametrize("label", SMALL_LABELS)
@pytest.mark.parametrize("corruption", [None, *CORRUPTIONS, *PAIRED])
def test_jacobi_matches_reference_sweep(label, corruption, with_coefficients):
    L = _corrupted(label, corruption, with_coefficients)
    report = check_jacobi(L)
    assert_reference_verdict(L, report)
    if corruption in PAIRED:
        assert report.antisymmetric
    else:
        assert report.ok == (corruption is None)


@pytest.fixture
def tiny_bands(monkeypatch):
    """Jacobi groups of 3 terms, so every generator is summed in a group of its
    own.  Returns the list that collects the term count of each sum taken."""
    sizes = []
    group_sums = liealg._group_sums

    def counted(key, values):
        sizes.append(len(key))
        return group_sums(key, values)

    monkeypatch.setattr(liealg, "_JACOBI_BAND_TERMS", 3)
    monkeypatch.setattr(liealg, "_group_sums", counted)
    return sizes


@pytest.mark.parametrize("label", SMALL_LABELS[1:])  # A1 has only two generators
@pytest.mark.parametrize("corruption", [None, *PAIRED])
def test_jacobi_in_tiny_bands_matches_reference(label, corruption, with_coefficients, tiny_bands):
    # A triple is summed whole in the group of its s, whatever the group size.
    L = _corrupted(label, corruption, with_coefficients)
    tiny_bands.clear()  # building the copy took a sum
    report = check_jacobi(L)
    sums = len(tiny_bands)
    assert report.antisymmetric
    assert_reference_verdict(L, report)
    # One sum per swept seed at least, after one for the antisymmetry
    # decision on a table with no layout (a dropped row pair).
    assert sums >= (L._layout is None) + len(liealg._jacobi_seeds(L)[0])
    assert report.ok == (corruption is None)


def test_zeroed_generator_row_grows_the_generating_set(with_coefficients, generators):
    # [g_{-theta}, g_a2] -> g_{-a1} and its mirror are the only rows that
    # cover g_{-a1} on A2.  Zeroed, the element joins the generating set,
    # and the verdict is still the exhaustive sweep's.
    L = build(make_type("A2"))
    T = L.table
    index = L.root_system.index
    s, a, out = (L.rank + index[r] for r in ((-1, -1), (0, 1), (-1, 0)))
    row = int(np.flatnonzero((T.i == s) & (T.j == a) & (T.m == out))[0])
    Z = with_coefficients(L, _paired_change(L, [row], lambda c: 0))
    assert liealg._generating_set(Z).tolist() == sorted([*generators(L), out])
    report = check_jacobi(Z)
    assert not report.ok
    assert_reference_verdict(Z, report)


@pytest.mark.parametrize("label", ["A2", "D4", "E6"])
def test_zeroed_coroot_row_of_a_generator_grows_the_generating_set(label, with_coefficients,
                                                                   generators):
    # [g_a1, g_{-a1}] -> -D_1 is the only row that covers D_1: the row of
    # g_{-theta} onto the Cartan part has several terms.  Zeroed with its
    # mirror, the rows keep their shapes, so the table keeps its layout and
    # D_1 joins the generating set read off it.
    L = build(make_type(label))
    T, k = L.table, L.rank
    simple = tuple(int(x == 0) for x in range(k))
    a, b = (k + L.root_system.index[r] for r in (simple, tuple(-x for x in simple)))
    row = int(np.flatnonzero((T.i == a) & (T.j == b))[0])
    assert (T.m[row], T.c[row]) == (0, -1)
    Z = with_coefficients(L, _paired_change(L, [row], lambda c: 0))
    assert Z._layout is not None
    assert liealg._generating_set(Z).tolist() == sorted([0, *generators(L)])
    assert_reference_verdict(Z, check_jacobi(Z))


@pytest.mark.parametrize("label", ["A3", "D4"])
@pytest.mark.parametrize("change", ["zero", "flip", "double", "plus-one"])
def test_corrupted_generator_rows_match_reference(label, change, with_coefficients):
    # Each row [e_i or g_{-theta}, g_a] -> g_c that covers g_c, changed with
    # its mirror: the level of g_a is height a for a > 0, h - height |a| for
    # a < 0, and that of D_i is h.
    L = build(make_type(label))
    T = L.table
    h = L.lie_type.coxeter_number
    height = L.root_system.coords.sum(axis=1)
    level = np.concatenate([np.full(L.rank, h), np.where(height > 0, height, h + height)])
    covering = np.flatnonzero((level[T.i] == 1) & (T.m >= L.rank) & (level[T.j] < level[T.m]))
    for row in random.Random(f"{label}-{change}").sample(covering.tolist(), 6):
        C = with_coefficients(L, _paired_change(L, [row], CORRUPTIONS[change]))
        report = check_jacobi(C)
        assert not report.ok
        assert_reference_verdict(C, report)


def test_rows_within_one_level_certify_nothing():
    # On A3's layout: x, y, z = D1, D2, D3 and u, v = g_{a1+a2}, g_{a2+a3}, with
    # [x, y] = u and [u, z] = v, so J(x, y, z) = v.  ad of g_a1 scales x, y,
    # z, u and v by 1, 2, 4, 3 and 7, a grading, so it is a derivation, and
    # every other generator brackets to zero.  Each row [g_a1, e] -> e joins
    # an element to itself, so it covers nothing: x, y and z stay in the
    # generating set, where the violation is found.
    L = build(make_type("A3"))
    g, u, v = (L.rank + L.root_system.index[r] for r in ((1, 0, 0), (1, 1, 0), (0, 1, 1)))
    upper = [(g, 0, 0, 1), (g, 1, 1, 2), (g, 2, 2, 4), (g, u, u, 3), (g, v, v, 7),
             (0, 1, u, 1), (u, 2, v, 1)]
    rows = upper + [(j, i, m, -c) for i, j, m, c in upper]
    C = dataclasses.replace(L, table=liealg.StructureTable.from_rows(L.dimension, *zip(*rows)))
    assert liealg._generating_set(C).tolist() == list(range(L.dimension))
    report = check_jacobi(C)
    assert report.violations == [(0, 1, 2), (0, 2, 1)]
    assert_reference_verdict(C, report)


def _root_row_orbit(L, row) -> list[int]:
    """The i < j rows that the lift of c carries ``row``, a root-root row, to: (c^j a, c^j b) -> c^j m."""
    T, n, k = L.table, L.dimension, L.rank
    lift = np.concatenate([np.arange(k), k + orbit_decomposition(L.lie_type, "coxeter_bar").step])
    i, j, m = (int(x[row]) for x in (T.i, T.j, T.m))
    found = set()
    for _ in range(L.lie_type.coxeter_number):
        found.add(int(np.flatnonzero((T.i == min(i, j)) & (T.j == max(i, j)) & (T.m == m))[0]))
        i, j, m = (int(x) for x in lift[[i, j, m]])
    return sorted(found)


def _first_root_root_row(L) -> int:
    T = L.table
    return int(np.flatnonzero((T.i >= L.rank) & (T.i < T.j) & (T.m >= L.rank))[0])


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_one_negated_row_fails_the_lift_and_c07_names_it(label, monkeypatch, with_coefficients):
    # One [g_a, g_b] row and its mirror negated: the table stays antisymmetric
    # but the lift of c no longer preserves it, so every generator is swept.
    L = build(make_type(label))
    C = with_coefficients(L, _paired_change(L, [_first_root_root_row(L)], lambda c: -c))
    assert not liealg._lift_certified(C)
    report = check_jacobi(C)
    assert report.antisymmetric and report.violations and not report.lift_certified
    assert liealg._jacobi_seeds(C)[0].tolist() == liealg._generating_set(C).tolist()
    assert_reference_verdict(C, report)
    monkeypatch.setattr(liealg, "build", lambda t: C)
    c07 = dict(CRITERIA)["C07-lie-algebra-laws"]
    passed, _, actual = c07([label])
    assert not passed
    assert actual.startswith(f"{label}: lift of c not certified; ")


@pytest.mark.parametrize("label", ["A3", "D4", "E6", "A8"])
def test_one_negated_row_orbit_keeps_the_lift_and_fails_jacobi(label, with_coefficients):
    # The same row and its mirror negated along the row's whole c-orbit: the
    # rows keep their shapes, so the table keeps its layout, and the lift
    # still preserves it, so one seed per kept c-orbit is swept, and the
    # violations are still found.
    L = build(make_type(label))
    rows = _root_row_orbit(L, _first_root_root_row(L))
    assert len(rows) > 1
    C = with_coefficients(L, _paired_change(L, rows, lambda c: -c))
    assert C._layout is not None and liealg._lift_certified(C)
    report = check_jacobi(C)
    assert report.antisymmetric and report.lift_certified and report.violations
    seeds = liealg._jacobi_seeds(C)[0]
    assert len(seeds) == len(liealg._seed_orbits(label)) < len(liealg._generating_set(C))
    assert_reference_verdict(C, report)


def _first_witness_row(L) -> int:
    """The first i < j row [g_x, g_y] -> g_z with x and y in the kept c-orbits and z outside them.

    Such rows are the first round of the additive closure of the kept orbits
    (:func:`liealg._seed_orbits`): each witnesses that g_z is a multiple of
    [g_x, g_y].
    """
    T, k = L.table, L.rank
    orbit_of = orbit_decomposition(L.lie_type, "coxeter_bar").orbit_of
    kept = np.concatenate([np.zeros(k, dtype=bool),
                           np.isin(orbit_of, liealg._seed_orbits(L.lie_type))])
    return int(np.flatnonzero((T.i < T.j) & kept[T.i] & kept[T.j] & ~kept[T.m] & (T.m >= k))[0])


def _refused_by_the_layout(C) -> bool:
    """Whether C has no layout, so its lift is not certified and its whole generating set swept."""
    seeds, certified = liealg._jacobi_seeds(C)
    return C._layout is None and not certified and \
        seeds.tolist() == liealg._generating_set(C).tolist()


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_a_zeroed_witness_row_is_refused(label, with_coefficients):
    # One witness row and its mirror zeroed, alone or along the row's whole
    # c-orbit: the root rows are no longer the summable pairs, so the table
    # has no layout, and the whole generating set is swept.  The verdict is
    # still the exhaustive sweep's.
    L = build(make_type(label))
    row = _first_witness_row(L)
    for rows in ([row], _root_row_orbit(L, row)):
        C = with_coefficients(L, _paired_change(L, rows, lambda c: 0))
        assert _refused_by_the_layout(C)
        report = check_jacobi(C)
        assert report.antisymmetric and not (report.ok or report.lift_certified)
        assert_reference_verdict(C, report)


@pytest.mark.parametrize("label", ["A3", "D4"])
@pytest.mark.parametrize("kind", ["[D_i, g_b]", "[g_a, g_-a]"])
def test_one_doubled_cartan_row_fails_the_lift(label, kind, with_coefficients):
    # One row onto a root vector from the Cartan part (W), or onto the Cartan
    # part from a root pair (V), doubled with its mirror: the lift's W or V
    # test must refuse the table, and the full generating set is swept.
    L = build(make_type(label))
    T, k = L.table, L.rank
    rows = (T.i < k) & (T.j >= k) if kind == "[D_i, g_b]" else (T.i >= k) & (T.m < k)
    row = int(np.flatnonzero(rows & (T.i < T.j))[0])
    C = with_coefficients(L, _paired_change(L, [row], lambda c: 2 * c))
    assert not liealg._lift_certified(C)
    report = check_jacobi(C)
    assert report.antisymmetric and not (report.ok or report.lift_certified)
    assert_reference_verdict(C, report)


def test_lift_certifies_only_the_three_row_shapes(with_coefficients):
    # A [D_1, D_2] -> D_1 row and its mirror, a shape the lift's certificate
    # does not read, leave it uncertified on a table it would otherwise pass.
    L = build(make_type("A3"))
    T = L.table
    rows = [*zip(T.i.tolist(), T.j.tolist(), T.m.tolist(), T.c.tolist()), (0, 1, 0, 1), (1, 0, 0, -1)]
    C = dataclasses.replace(L, table=liealg.StructureTable.from_rows(L.dimension, *zip(*rows)))
    assert liealg._lift_certified(L) and not liealg._lift_certified(C)
    report = check_jacobi(C)
    assert not (report.ok or report.lift_certified)
    assert_reference_verdict(C, report)


@pytest.mark.parametrize("label", ["A4", "D5", "E6"])
def test_a_witness_row_onto_another_root_is_refused(label):
    # Along the c-orbit of a witness row [g_x, g_y] -> g_z, each output moved
    # one step on, g_{c^j z} -> g_{c^(j+1) z}, with the mirrors: the table is
    # still antisymmetric and c-invariant, but its root rows are no longer the
    # summable pairs, so it has no layout and the whole generating set is swept.
    L = build(make_type(label))
    T, k = L.table, L.rank
    step = orbit_decomposition(L.lie_type, "coxeter_bar").step
    m = T.m.copy()
    for row in _root_row_orbit(L, _first_witness_row(L)):
        mirror = (T.i == T.j[row]) & (T.j == T.i[row]) & (T.m == T.m[row])
        m[row] = m[mirror] = k + step[T.m[row] - k]
    C = dataclasses.replace(L, table=liealg.StructureTable.from_rows(L.dimension, T.i, T.j, m, T.c))
    assert _refused_by_the_layout(C)
    report = check_jacobi(C)
    assert report.antisymmetric and not (report.ok or report.lift_certified)
    assert_reference_verdict(C, report)


def test_witnesses_read_an_empty_bracket_as_missing():
    # The witness bracket [g_x, g_y] emptied and the next one, [g_x, g_{y+1}],
    # made a single row onto g_z: the root rows are no longer the summable
    # pairs, so the table has no layout.  Its mirrors are left alone, so it is
    # not antisymmetric and is not swept.
    L = build(make_type("D5"))
    T = L.table
    row = _first_witness_row(L)
    i, j, z = (int(col[row]) for col in (T.i, T.j, T.m))
    assert j + 1 < L.dimension
    keep = (T.i != i) | ((T.j != j) & (T.j != j + 1))
    cols = [np.append(col[keep], value)
            for col, value in zip((T.i, T.j, T.m, T.c), (i, j + 1, z, 1))]
    C = dataclasses.replace(L, table=liealg.StructureTable.from_rows(L.dimension, *cols))
    assert L._layout is not None and _refused_by_the_layout(C)
    report = check_jacobi(C)
    assert not report.antisymmetric
    assert_reference_verdict(C, report)


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
    # Small indices make terms with z = s or y = s common; dimension 3 is
    # A1's layout, so the generation certificate reads levels there.  One
    # lone row with no mirror (a zero coefficient, or i = j, included) makes
    # a table that is not antisymmetric, unless its coefficient is zero.
    n, rows = table
    L = _algebra_from_rows(n, rows)
    assert_reference_verdict(L, check_jacobi(L))
    taken = {row[:3] for row in rows}
    free = [(x, y, m) for x in range(n) for y in range(n) for m in range(n)
            if (x, y, m) not in taken]
    lone = (*data.draw(st.sampled_from(free)), data.draw(st.integers(-3, 3)))
    L = _algebra_from_rows(n, rows + [lone])
    assert_reference_verdict(L, check_jacobi(L))


@settings(max_examples=60)
@given(antisymmetric_rows(), st.integers(1, 3))
def test_jacobi_in_tiny_bands_matches_reference_on_random_tables(table, budget):
    n, rows = table
    L = _algebra_from_rows(n, rows)
    want = check_jacobi(L)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liealg, "_JACOBI_BAND_TERMS", budget)
        report = check_jacobi(L)
    assert report == want
    assert report.antisymmetric
    assert_reference_verdict(L, report)


def _synthetic_rows(n: int) -> list[tuple[int, int, int, int]]:
    """Seeded random antisymmetric rows on dimension n, with index n - 1 as i, j and m."""
    rng = random.Random(n)
    top = n - 1
    upper = [(0, top, top, 1), (1, top, 0, -2), (top - 1, top, 1, 3)]
    for _ in range(3 * n):
        x, y = sorted(rng.sample(range(n), 2))
        upper.append((x, y, rng.randrange(n), rng.choice((-2, -1, 1, 2))))
    return upper + [(y, x, m, -c) for x, y, m, c in upper]


def _packing_edge_algebras() -> dict[str, liealg.LieAlgebra]:
    """Tables at the edges of check_jacobi's b-bit key fields, b = (n - 1).bit_length().

    Dimension 1 (b = 0) and 2 (b = 1); A2, n = 8, where every field is
    full; dimensions 9 and 65, one past a power of two; and A2's rows in a
    table of dimension 9, not laid out on a root system, where every element
    is a generator.
    """
    A2 = build(make_type("A2"))
    T = A2.table
    flipped = _paired_change(A2, [int(np.flatnonzero(T.i < T.j)[-1])], lambda c: -c)
    return {"n1": _algebra_from_rows(1, [(0, 0, 0, 0)]),
            "n1-lone": _algebra_from_rows(1, [(0, 0, 0, 1)]),
            "n2": _algebra_from_rows(2, [(0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, -1), (1, 0, 1, -1)]),
            "A2": A2,
            "A2-paired": dataclasses.replace(
                A2, table=liealg.StructureTable.from_rows(8, T.i, T.j, T.m, flipped)),
            "n9": _algebra_from_rows(9, _synthetic_rows(9)),
            "n65": _algebra_from_rows(65, _synthetic_rows(65)),
            "A2-in-n9": _algebra_from_rows(9, zip(T.i.tolist(), T.j.tolist(), T.m.tolist(),
                                                  T.c.tolist()))}


PACKING_EDGES = _packing_edge_algebras()


@pytest.mark.parametrize("name", PACKING_EDGES)
def test_jacobi_at_the_edges_of_the_key_packing(name):
    L = PACKING_EDGES[name]
    report = check_jacobi(L)
    assert_reference_verdict(L, report)
    if name.startswith("A2-in") or name == "n65":
        assert liealg._generating_set(L).tolist() == list(range(L.dimension))
    if name in ("A2-paired", "n9", "n65"):
        assert report.antisymmetric and report.violations


@pytest.mark.parametrize("label", sorted(JACOBI_ALGEBRAS))
def test_cli_jacobi_prints_reference_class_count(label, capsys):
    L = JACOBI_ALGEBRAS[label]
    triples, bad = reference_generator_sweep(L, liealg._jacobi_seeds(L)[0].tolist())
    assert not bad
    assert cli.main(["lie", label, "--check", "jacobi"]) == 0
    out = capsys.readouterr().out
    assert out == f"dimension {L.dimension}\n  jacobi ({triples} generator triples): ok\n"


@given(st.lists(st.integers(0, 7) | st.integers(0, (1 << 57) - 1), max_size=63))
def test_stable_order_is_the_stable_argsort(keys):
    # Up to 63 keys take b = 6 position bits, so every key below 2^57 packs;
    # small keys make duplicates, and the list may be empty.
    key = np.array(keys, dtype=np.int64)
    ordered, order = liealg._stable_order(key)
    assert np.array_equal(ordered, np.sort(key))
    assert np.array_equal(order, np.argsort(key, kind="stable"))
    assert (ordered.dtype, order.dtype) == (np.int64, np.intp)


@pytest.mark.parametrize("bad", [1 << 46, -1], ids=["at-bound", "negative"])
def test_stable_order_refuses_keys_outside_the_packing_before_allocating(bad):
    # 100,000 keys take b = 17 position bits, so keys must lie in [0, 2^46).
    key = np.zeros(100_000, dtype=np.int64)
    key[1] = (1 << 46) - 1
    assert liealg._stable_order(key)[1][-1] == 1
    key[0] = bad
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"\[0, 2\^46\)"):
            liealg._stable_order(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # one int64 array of the keys' length is 800 kB


def test_jacobi_sweeps_dimension_past_1024():
    # E8's rows in a table of dimension 1025: not laid out on E8's root
    # system, so every element is checked as a derivation, group by group.
    L = build(make_type("E8"))
    T = L.table
    L = dataclasses.replace(L, table=liealg.StructureTable.from_rows(1025, T.i, T.j, T.m, T.c))
    assert liealg._generating_set(L).tolist() == list(range(1025))
    tracemalloc.start()
    try:
        report = check_jacobi(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 16_000_000


def test_jacobi_refuses_overflowing_coefficient_before_allocating(with_coefficients):
    # A lone wide coefficient breaks antisymmetry, and nothing is summed;
    # paired with its mirror, one of 2^31 could overflow the int64 sums.
    L = build(make_type("E8"))
    c = L.table.c.copy()
    c[0] = 2048
    report = check_jacobi(with_coefficients(L, c))
    assert (report.ok, report.antisymmetric, report.triples_checked) == (False, False, 0)
    W = with_coefficients(L, _paired_change(L, [int(np.flatnonzero(L.table.i < L.table.j)[0])],
                                            lambda c: 1 << 31))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overflow"):
            check_jacobi(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_jacobi_overflow_guard_reads_the_exact_term_count(with_coefficients, tiny_bands):
    # The guard refuses exactly when widest^2 times the number of terms
    # summed reaches 2^63, so a per-generator count off by one row shows.
    # The changed row [D_1, g_b] breaks the lift's certificate, so every
    # generator is swept, whatever the new coefficient.  Paired with its
    # mirror it keeps the table's layout, so antisymmetry takes no sum.
    L = build(make_type("E8"))
    row = [int(np.flatnonzero(L.table.i < L.table.j)[0])]
    changed = with_coefficients(L, _paired_change(L, row, lambda c: 3 * c))
    tiny_bands.clear()  # building the changed table took a sum too
    report = check_jacobi(changed)
    assert not (report.ok or report.lift_certified) and changed._layout is not None
    terms = sum(tiny_bands)  # every sum is the sweep's
    widest = math.isqrt(((1 << 63) - 1) // terms)  # the largest with widest^2 * terms < 2^63
    assert not check_jacobi(with_coefficients(L, _paired_change(L, row, lambda c: widest))).ok
    with pytest.raises(ValueError, match="overflow"):
        check_jacobi(with_coefficients(L, _paired_change(L, row, lambda c: widest + 1)))


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
    dense = np.asarray(K)
    # basis order: D1, g_{-a}, g_{+a}; ad(D1) = diag(0, -2, 2)
    assert dense[0, 0] == 8
    assert np.array_equal(dense, dense.T)
    assert is_nondegenerate(K) is True


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_killing_nondegenerate_and_cartan_rank(label):
    t = make_type(label)
    L = build(t)
    K = killing_form(L)
    dense = np.asarray(K)
    assert np.array_equal(dense, dense.T)
    assert is_nondegenerate(K) is True
    assert rank_exact(dense[: t.rank, : t.rank]) == t.rank


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
    K = np.asarray(killing_form(L))
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
    # that the sl2 laws read; both paths must name the same roots.  A
    # changed coefficient keeps the rows' shapes, so check_sl2 reads the
    # layout; most changed outputs break a shape, so it reads the rows.
    L = build(make_type(label))
    rows = _sl2_rows(L)
    rng = random.Random(f"sl2-{label}")
    failing, paths = 0, Counter()
    for _ in range(60):
        row = rng.choice(rows)
        c, m = L.table.c.copy(), L.table.m.copy()
        coefficient = rng.random() < 0.5
        if coefficient:
            c[row] += rng.choice((-2, -1, 1, 2))
        else:
            m[row] = rng.choice([x for x in range(L.dimension) if x != m[row]])
        bad = _with_rows(L, L.table.i, L.table.j, m, c)
        laid_out = bad._layout is not None
        assert laid_out or not coefficient
        paths[laid_out] += 1
        got = check_sl2(bad)
        assert got == reference_sl2(bad)
        failing += bool(got)
    assert failing > 30
    assert paths[True] > 20 and paths[False] > 20, paths


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
