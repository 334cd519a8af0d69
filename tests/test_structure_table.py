"""The sparse structure-constant table: closed forms, size bounds and policy."""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomlie.lattice import make_type
from geomlie.liealg import (MAX_JACOBI_TERMS, AlgebraElement, StructureTable, build,
                            check_antisymmetry, check_jacobi, killing_form, term_bounds)
from geomlie.rootsys import MAX_ROOT_ENTRIES, enumerate_roots
from geomlie.verify import ALL_TYPE_LABELS


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")

# Every type build accepts: A1-A31, D3-D20 and E6-E8.
ALL_ACCEPTED_LABELS = ([f"A{k}" for k in range(1, 32)] + [f"D{k}" for k in range(3, 21)]
                       + ["E6", "E7", "E8"])


def closed_form_killing(label: str) -> np.ndarray:
    """K = 2h C on the Cartan block, K(g_a, g_-a) = -2h, 0 elsewhere (Kac 7.8).

    Built from the root list alone: h = |Phi| / k, and for i != j the Cartan
    entry is -1 exactly when e_i + e_j is a root.
    """
    roots = enumerate_roots(label).roots
    position = {r: i for i, r in enumerate(roots)}
    k = len(roots[0])
    h = len(roots) // k
    K = np.zeros((k + len(roots),) * 2, dtype=np.int64)
    for i in range(k):
        for j in range(k):
            simple_sum = tuple(int(m in (i, j)) for m in range(k))
            cartan = 2 if i == j else -1 if simple_sum in position else 0
            K[i, j] = 2 * h * cartan
    for r, a in position.items():
        K[k + a, k + position[tuple(-x for x in r)]] = -2 * h
    return K


@pytest.mark.parametrize("label", list(ALL_TYPE_LABELS) + ["A10"])
def test_killing_closed_form(label):
    assert np.array_equal(killing_form(build(label)), closed_form_killing(label))


@pytest.mark.parametrize("label", ["A2", "D4", "E6"])
def test_killing_negative_control(label, with_coefficients):
    # One flipped [g_a, g_b] coefficient must move the Killing form.
    L = build(label)
    T = L.table
    row = int(np.flatnonzero((T.i >= L.rank) & (T.j >= L.rank) & (T.m >= L.rank))[0])
    c = T.c.copy()
    c[row] = -c[row]
    assert not np.array_equal(killing_form(with_coefficients(L, c)), closed_form_killing(label))


def test_root_sums_exact_past_a27():
    # Mixed-radix keys with radix 5 overflow int64 here; the lookup must not.
    t = make_type("A28")
    L = build(t)
    rs = L.root_system
    k = t.rank
    T = L.table
    rows = np.flatnonzero((T.i >= k) & (T.j >= k) & (T.m >= k))
    assert len(rows) == t.root_count * (2 * t.coxeter_number - 4)
    for i, j, m in zip(*(col[rows].tolist() for col in (T.i, T.j, T.m))):
        total = tuple(x + y for x, y in zip(rs.roots[i - k], rs.roots[j - k]))
        assert rs.index[total] == m - k


@pytest.mark.parametrize("label", list(ALL_TYPE_LABELS) + ["A14", "D12"])
def test_term_bounds_hold(label):
    t = make_type(label)
    L = build(t)
    T = L.table
    table_bound, join_bound = term_bounds(t)
    assert len(T.c) <= table_bound
    on_roots = (T.i >= t.rank) & (T.j >= t.rank) & (T.m >= t.rank)
    assert np.count_nonzero(on_roots) == t.root_count * (2 * t.coxeter_number - 4)
    row_length = np.bincount(T.i, minlength=L.dimension)
    assert int(row_length[T.m].sum()) <= join_bound


def test_build_refuses_oversized_type_before_allocating():
    assert term_bounds("A30")[1] <= MAX_JACOBI_TERMS < term_bounds("A60")[1]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="too large"):
            build("A60")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1_000_000


def test_enumerate_roots_refuses_oversized_type_before_allocating():
    # A128 (2.1M root entries) is the largest type accepted.
    t = make_type("A128")
    assert t.root_count * t.rank <= MAX_ROOT_ENTRIES
    tracemalloc.start()
    try:
        want = r"A2000: 8004000000 root entries \(64032000000 bytes\)"
        with pytest.raises(ValueError, match=want):
            enumerate_roots("A2000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_jacobi_peak_per_join_term():
    # MAX_JACOBI_TERMS is sized by this figure: about 13 bytes per term of
    # the full join, of which check_jacobi joins the i < j half.
    L = build("E8")
    T = L.table
    terms = int(np.bincount(T.i, minlength=L.dimension)[T.m].sum())
    tracemalloc.start()
    try:
        assert check_jacobi(L).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * terms


@st.composite
def row_sets(draw) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Rows (i, j, m, c) of dimension n in any order, with a repeated (i, j, m),
    a cancelling pair, a row with i = j and a zero coefficient among them."""
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(index, index, index, st.integers(-3, 3)), max_size=20))
    x, y, m = draw(index), draw(index), draw(index)
    rows += [(x, y, m, 1), (x, y, m, -2), (y, y, x, 3), (y, x, m, 0)]
    x, y, m = draw(index), draw(index), draw(index)
    rows += [(x, y, m, 2), (x, y, m, -2)]
    return n, draw(st.permutations(rows))


def _table(n: int, rows) -> StructureTable:
    return StructureTable.from_rows(n, *([row[k] for row in rows] for k in range(4)))


def _columns(T) -> list[tuple[int, int, int, int]]:
    return list(zip(T.i.tolist(), T.j.tolist(), T.m.tolist(), T.c.tolist()))


def _summed(rows) -> list[tuple[int, int, int, int]]:
    """The definition: the rows summed per (i, j, m), zero sums dropped, sorted."""
    total = Counter()
    for i, j, m, c in rows:
        total[i, j, m] += c
    return sorted((*key, c) for key, c in total.items() if c)


@given(row_sets())
def test_from_rows_sorts_and_indexes_the_rows(case):
    # One bracket map, one table: the stored rows are the summed, zero-free rows.
    n, rows = case
    T = _table(n, rows)
    want = _summed(rows)
    assert T.n == n and _columns(T) == want
    assert T.start.dtype == np.int32
    assert T.start.tolist() == [sum(i * n + j < q for i, j, _, _ in want) for q in range(n * n + 1)]
    for col in (T.i, T.j, T.m, T.c, T.start):
        assert not col.flags.writeable
    L = dataclasses.replace(build("A1"), table=T)
    assert L.dimension == n
    for x in range(n):
        for y in range(n):
            terms: dict[int, int] = {}
            for i, j, m, c in rows:
                if (i, j) == (x, y):
                    terms[m] = terms.get(m, 0) + c
            assert L.bracket_basis(x, y) == AlgebraElement.from_dict(terms)


def test_from_rows_refuses_an_index_out_of_range():
    for bad in ([3], [-1]):
        with pytest.raises(ValueError, match="basis index out of range"):
            StructureTable.from_rows(3, [0], bad, [0], [1])
    assert _table(3, []).start.tolist() == [0] * 10


@pytest.mark.parametrize("label", ALL_ACCEPTED_LABELS)
def test_from_rows_reproduces_every_built_table(label):
    # build's rows are already summed and zero-free, so rebuilding changes nothing.
    T = build(label).table
    again = StructureTable.from_rows(T.n, T.i, T.j, T.m, T.c)
    assert again.n == T.n
    for name in ("i", "j", "m", "c", "start"):
        old, new = getattr(T, name), getattr(again, name)
        assert old.dtype == new.dtype and np.array_equal(old, new), name


@st.composite
def mirrored_row_sets(draw) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Rows with i < j and their mirrors (j, i, m, -c), in any order, then at
    most one change: a lone row, a row with i = j, a cancelling pair, or a
    row negated, changed or dropped."""
    n = draw(st.integers(2, 5))
    index = st.integers(0, n - 1)
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    half = draw(st.lists(st.tuples(st.sampled_from(pairs), index, st.integers(-3, 3)), max_size=10))
    rows = [row for (x, y), m, c in half for row in ((x, y, m, c), (y, x, m, -c))]
    change = draw(st.sampled_from(["none", "lone", "diagonal", "cancelling", "negated", "changed",
                                   "dropped"]))
    if change == "lone":
        rows.append(draw(st.tuples(index, index, index, st.integers(-3, 3))))
    elif change == "diagonal":
        x = draw(index)
        rows.append((x, x, draw(index), draw(st.integers(-3, 3))))
    elif change == "cancelling":
        x, y, m = draw(index), draw(index), draw(index)
        rows += [(x, y, m, 1), (x, y, m, -1)]
    elif rows and change != "none":
        i, j, m, c = rows.pop(draw(st.integers(0, len(rows) - 1)))
        if change != "dropped":
            rows.append((i, j, m, -c if change == "negated" else c + 1))
    return n, draw(st.permutations(rows))


def _antisymmetry_defects(rows) -> list[tuple[int, int]]:
    """The definition: pairs i <= j whose summed rows give [e_i, e_j] != -[e_j, e_i]."""
    total = Counter()
    for i, j, m, c in rows:
        total[min(i, j), max(i, j), m] += c
    return sorted({(i, j) for (i, j, _), c in total.items() if c})


@given(mirrored_row_sets())
def test_check_antisymmetry_matches_the_summed_definition(case):
    # No defect lets check_jacobi join only the i < j rows, which is right
    # only if the table's i > j rows are then the mirrors of its i < j rows.
    n, rows = case
    L = dataclasses.replace(build("A1"), table=_table(n, rows))
    got = check_antisymmetry(L)
    assert got == _antisymmetry_defects(rows)
    if not got:
        stored = _columns(L.table)
        assert Counter(row for row in stored if row[0] < row[1]) == \
            Counter((j, i, m, -c) for i, j, m, c in stored if i > j)
        assert all(i != j for i, j, _, _ in stored)


def test_built_tables_are_antisymmetric():
    for label in ALL_ACCEPTED_LABELS:
        assert not check_antisymmetry(build(label)), label
