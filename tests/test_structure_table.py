"""The sparse structure-constant table: closed forms, size bounds and policy."""

from __future__ import annotations

import dataclasses
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from geomlie import liealg
from geomlie.lattice import cartan_matrix, make_type
from geomlie.liealg import (MAX_DIMENSION, AlgebraElement, StructureTable, bracket, build,
                            check_antisymmetry, check_jacobi, killing_form)
from geomlie.rootsys import (MAX_ROOT_ENTRIES, enumerate_roots, orbit_decomposition,
                             summable_pairs)
from geomlie.verify import ALL_TYPE_LABELS


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")

# Every type build accepts: A1-A31, D3-D22 and E6-E8.
ALL_ACCEPTED_LABELS = ([f"A{k}" for k in range(1, 32)] + [f"D{k}" for k in range(3, 23)]
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


def _same_form(K, reference) -> bool:
    """Whether two sparse forms hold the same entries in the same order."""
    return K.n == reference.n and all(np.array_equal(getattr(K, a), getattr(reference, a))
                                      for a in ("row", "col", "value"))


@pytest.mark.parametrize("label", ALL_ACCEPTED_LABELS)
def test_killing_closed_form(label):
    # The grading path against the closed form and against the join of the
    # whole table, which shares no code with it.
    L = build(label)
    K = killing_form(L)
    assert L._layout is not None
    assert K.value.dtype == np.int64 and not K.value.flags.writeable
    assert np.array_equal(np.asarray(K), closed_form_killing(label))
    assert _same_form(K, liealg._killing_join(L.table))


@given(st.sampled_from(["A1", "A2", "A3", "A5", "A7", "D4", "D5", "E6"]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([3, 1 << 20]))
def test_killing_graded_path_equals_the_join_on_scrambled_coefficients(label, seed, widest):
    # New coefficients on the same rows keep the table laid out on its root
    # system, so the grading decides the form; it must match the join.
    L = build(label)
    T = L.table
    rng = np.random.default_rng(seed)
    c = rng.integers(1, widest, len(T.c), endpoint=True) * rng.choice([-1, 1], len(T.c))
    S = dataclasses.replace(L, table=StructureTable.from_rows(T.n, T.i, T.j, T.m, c))
    assert S._layout is not None
    assert _same_form(killing_form(S), liealg._killing_join(S.table))


@pytest.mark.parametrize("label", ["A1", "A3", "D4", "E6"])
def test_killing_of_a_table_not_laid_out_is_the_join(label):
    # One central element more, one root row dropped, or one row more of a
    # shape no bracket rule makes ([g_a, g_a] -> D_1, [g_a, D_1] -> g_b,
    # [D_1, g_a] -> g_b, [D_1, D_1] -> D_1): the join alone gives the form.
    L = build(label)
    T, k = L.table, L.rank
    widened = StructureTable.from_rows(T.n + 1, T.i, T.j, T.m, T.c)
    tables = [widened]
    for extra in [(k, k, 0), (k, 0, k + 1), (0, k, k + 1), (0, 0, 0)]:
        tables.append(StructureTable.from_rows(T.n, *(np.append(col, x) for col, x in
                                                      zip((T.i, T.j, T.m, T.c), (*extra, 1)))))
    root = np.flatnonzero((T.i >= L.rank) & (T.j >= L.rank) & (T.m >= L.rank))
    if len(root):
        keep = np.ones(len(T.c), dtype=bool)
        keep[root[0]] = False
        tables.append(StructureTable.from_rows(T.n, T.i[keep], T.j[keep], T.m[keep], T.c[keep]))
    for table in tables:
        S = dataclasses.replace(L, table=table)
        assert S._layout is None
        assert _same_form(killing_form(S), liealg._killing_join(table))
    assert not liealg.is_nondegenerate(killing_form(dataclasses.replace(L, table=widened)))


@pytest.mark.parametrize("root", [0, 1], ids=["g_-a", "g_a"])
def test_killing_graded_path_on_a_root_with_no_rows(root):
    # A1 has no root rows, so dropping both rows of g_{-a} (the first root)
    # or of g_a (the last basis element) keeps every row's shape and leaves
    # that root's range of rows empty, at the start or the end of the table.
    L = build("A1")
    T = L.table
    keep = T.i != L.rank + root
    S = dataclasses.replace(L, table=StructureTable.from_rows(T.n, T.i[keep], T.j[keep],
                                                              T.m[keep], T.c[keep]))
    assert S._layout is not None
    K = killing_form(S)
    assert _same_form(K, liealg._killing_join(S.table))
    assert np.array_equal(np.asarray(K), [[8, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert liealg.is_nondegenerate(K) is False


@pytest.mark.parametrize("label", ["A31", "D22"])
def test_killing_and_nondegeneracy_peak_at_the_largest_types(label):
    # No n x n array: the dense int64 matrix alone would be 8.4 MB on A31.
    # A fresh copy decides its layout inside the traced call, whatever ran before.
    L = dataclasses.replace(build(label))
    tracemalloc.start()
    try:
        assert liealg.is_nondegenerate(killing_form(L)) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_layout_is_decided_once_per_algebra(with_coefficients):
    # The layout is memoized on the algebra: every call returns one object of
    # read-only arrays.  A dataclasses.replace copy, like a corrupted table's,
    # has none until it decides its own.
    L = build("D4")
    layout = L._layout
    assert layout is not None and L._layout is layout
    for a in layout:
        assert a.dtype == np.int64 and not a.flags.writeable
    copy = dataclasses.replace(L)
    assert "_layout" not in vars(copy)
    assert copy._layout is not layout
    assert all(np.array_equal(x, y) for x, y in zip(copy._layout, layout))
    T = L.table
    c = T.c.copy()
    c[np.flatnonzero((T.i >= L.rank) & (T.j >= L.rank) & (T.m >= L.rank))[0]] = 0
    assert with_coefficients(L, c)._layout is None and L._layout is layout


@pytest.mark.parametrize("label", ALL_ACCEPTED_LABELS)
def test_pair_permutations_match_a_pair_dictionary(label):
    # The oracle indexes the summable pairs by (a, b) in a dict and finds
    # (ca, cb), (-a, a + b) and (b, a) there, -a by its coordinates.
    a, b, total, _ = summable_pairs(label)
    rs = enumerate_roots(label)
    step = orbit_decomposition(label, "coxeter_bar").step.tolist()
    negative = [rs.index[tuple(-x for x in r)] for r in rs.roots]
    index = {pair: p for p, pair in enumerate(zip(a.tolist(), b.tolist()))}
    cpair, partner, swap = liealg._pair_permutations(label)
    assert cpair.tolist() == [index[step[x], step[y]] for x, y in zip(a.tolist(), b.tolist())]
    assert partner.tolist() == [index[negative[x], z] for x, z in zip(a.tolist(), total.tolist())]
    assert swap.tolist() == [index[y, x] for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(total[partner], b)
    for perm in (partner, swap):
        assert np.array_equal(perm[perm], np.arange(len(a)))
    for perm in (cpair, partner, swap):
        assert np.array_equal(np.sort(perm), np.arange(len(a))) and not perm.flags.writeable
    # [g_b, g_a] = -[g_a, g_b] on the built table: N(b, a) = -N(a, b).
    v = build(label)._layout.v
    assert np.array_equal(v[swap], -v)


@pytest.mark.parametrize("label", ["A2", "D4", "E6"])
def test_killing_negative_control(label, with_coefficients):
    # One flipped [g_a, g_b] coefficient must move the Killing form.
    L = build(label)
    T = L.table
    row = int(np.flatnonzero((T.i >= L.rank) & (T.j >= L.rank) & (T.m >= L.rank))[0])
    c = T.c.copy()
    c[row] = -c[row]
    assert not np.array_equal(np.asarray(killing_form(with_coefficients(L, c))),
                              closed_form_killing(label))


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
    """The root rows number |Phi|(2h - 4), and the Jacobi sweep stays within 1.5 self-joins."""
    t = make_type(label)
    L = build(t)
    T = L.table
    on_roots = (T.i >= t.rank) & (T.j >= t.rank) & (T.m >= t.rank)
    assert np.count_nonzero(on_roots) == t.root_count * (2 * t.coxeter_number - 4)
    row_length = np.bincount(T.i, minlength=L.dimension)
    self_join = int(row_length[T.m].sum())
    # check_jacobi's terms: a row [s, x] -> m of a generator s meets the rows
    # of e_m and the i < j rows onto e_x.
    onto = np.bincount(T.m[T.i < T.j], minlength=L.dimension)
    of_seeds = np.isin(T.i, liealg._generating_set(L))
    sweep = int((row_length[T.m] + onto[T.j])[of_seeds].sum())
    assert 2 * sweep <= 3 * self_join


def test_build_refuses_oversized_type_before_allocating():
    # The largest accepted types of the two infinite families, and the next ones.
    fits = [make_type(label).dimension <= MAX_DIMENSION for label in ("A31", "A32", "D22", "D23")]
    assert fits == [True, False, True, False]
    for label in ("A32", "D23"):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=f"{label} is too large"):
                build(label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1_000_000


def test_enumerate_roots_refuses_oversized_type_before_allocating():
    # A160 (4,121,600 root entries) and D128 (4,161,536) are the largest types accepted.
    for label in ("A160", "D128"):
        t = make_type(label)
        assert t.root_count * t.rank <= MAX_ROOT_ENTRIES
    for label in ("A161", "D129"):
        t = make_type(label)
        assert t.root_count * t.rank > MAX_ROOT_ENTRIES
    tracemalloc.start()
    try:
        want = r"A2000: 8004000000 root entries \(64032000000 bytes\)"
        with pytest.raises(ValueError, match=want):
            enumerate_roots("A2000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("label, limit_mb", [("E8", 8), ("A31", 16)], ids=["E8", "A31"])
def test_jacobi_peak_within_band_bounds(label, limit_mb):
    # check_jacobi sums the generators' terms group by group, so its peak is
    # set by the group and the table, not by the terms: 55k of them on E8
    # and 241k on A31, the largest A type accepted (MAX_DIMENSION).
    L = build(label)
    tracemalloc.start()
    try:
        assert check_jacobi(L).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1_000_000


@pytest.mark.parametrize("label", ["A31", "D22"])
def test_build_peak_has_no_n_squared_count_array(label):
    # from_rows makes the int32 row index (4.2 MB on A31) by repeating the
    # run starts over the gaps between the pairs, with no n^2 int64 count
    # array beside it.  The root layer's memos are warm, so the trace
    # measures the table alone.
    build(label)
    t = make_type(label)
    tracemalloc.start()
    try:
        L = build.__wrapped__(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.table.start.nbytes == 4 * (t.dimension ** 2 + 1)
    assert peak < 16_000_000


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


def test_built_tables_decide_antisymmetry_without_sorting(monkeypatch):
    # Every built table has a layout, so its three comparisons decide it and
    # the packed sort of its rows never runs.
    tables = [build(label) for label in ALL_ACCEPTED_LABELS]

    def refuse(key, values):
        raise AssertionError("check_antisymmetry sorted a built table's rows")

    monkeypatch.setattr(liealg, "_group_sums", refuse)
    for L in tables:
        assert L._layout is not None and check_antisymmetry(L) == [], L.lie_type.label


@pytest.mark.parametrize("label", ["A2", "D4", "D5", "E6"])
@pytest.mark.parametrize("rule", ["W", "V", "v"])
@pytest.mark.parametrize("mirrored", [False, True], ids=["alone", "with-mirror"])
def test_laid_out_antisymmetry_matches_the_summed_definition(label, rule, mirrored,
                                                             with_coefficients):
    # One entry of W ([D_i, g_b] -> g_b), V ([g_a, g_{-a}] -> D_d) or v
    # ([g_a, g_b] -> g_{a+b}) tripled, alone or with its mirror (j, i, m)
    # set to match: the rows keep their shapes, so the table keeps its
    # layout and the comparisons decide, and they must name the pairs the
    # definition names.
    L = build(label)
    T, k = L.table, L.rank
    rows = np.flatnonzero({"W": T.i < k, "V": (T.i >= k) & (T.m < k),
                           "v": (T.i >= k) & (T.j >= k) & (T.m >= k)}[rule])
    row = int(rows[len(rows) // 2])
    c = T.c.copy()
    c[row] *= 3
    if mirrored:
        c[(T.i == T.j[row]) & (T.j == T.i[row]) & (T.m == T.m[row])] = -c[row]
    C = with_coefficients(L, c)
    assert C._layout is not None
    got = check_antisymmetry(C)
    assert got == _antisymmetry_defects(_columns(C.table))
    assert got == ([] if mirrored else [(min(T.i[row], T.j[row]), max(T.i[row], T.j[row]))])


def closure_dimension(L, seeds: list[int]) -> int:
    """Dimension of the smallest subspace that holds ``seeds`` and is closed under their ad.

    That subspace lies in the subalgebra the seeds generate.  Brackets are
    read pair by pair through ``bracket_basis``; on a built table each is a
    multiple of one root vector or a Cartan combination, and the Cartan
    combinations are kept while they raise the exact rank (sympy).
    """
    k = L.rank
    roots, cartan = set(seeds), []
    queue = [AlgebraElement(((x, 1),)) for x in seeds]
    while queue:
        x = queue.pop()
        for s in seeds:
            y = bracket(L, AlgebraElement(((s, 1),)), x)
            support = [i for i, _ in y.terms]
            if all(i < k for i in support):
                vector = [dict(y.terms).get(i, 0) for i in range(k)]
                if y.terms and sympy.Matrix([*cartan, vector]).rank() > len(cartan):
                    cartan.append(vector)
                    queue.append(y)
            else:
                assert len(support) == 1, support  # one root vector
                if support[0] not in roots:
                    roots.add(support[0])
                    queue.append(AlgebraElement(((support[0], 1),)))
    return len(roots) + len(cartan)


@pytest.mark.parametrize("label", ALL_TYPE_LABELS)
def test_affine_generators_generate_by_closure(label, generators):
    # e_1..e_k and g_{-theta} generate the whole algebra; e_1..e_k alone
    # reach only the positive root vectors.  Shares no code with the
    # generation certificate of check_jacobi.
    L = build(label)
    seeds = generators(L)
    assert closure_dimension(L, seeds) == L.rank + len(L.root_system)
    positive = [x for x in seeds if L.root_system.coords[x - L.rank].sum() > 0]
    assert closure_dimension(L, positive) == len(L.root_system) // 2


def kept_orbit_count(label: str) -> int:
    """How many c-orbits of roots generate Phi additively: two on even D_k, one otherwise."""
    return 2 if label[0] == "D" and int(label[1:]) % 2 == 0 else 1


def test_generators_generate_every_built_table(generators):
    # The generation certificate covers every element but e_1..e_k and
    # g_{-theta}, every built table has a layout, so one nonzero row per
    # summable pair, and the lift of c is certified on it, so check_jacobi
    # checks the derivations of one of them per kept orbit: one on A_k, E_k
    # and odd D_k (D3 is A3 in D's labelling), two on even D_k.
    for label in ALL_ACCEPTED_LABELS:
        L = build(label)
        assert liealg._generating_set(L).tolist() == generators(L), label
        assert len(liealg._seed_orbits(label)) == kept_orbit_count(label), label
        assert L._layout is not None, label
        seeds, certified = liealg._jacobi_seeds(L)
        assert certified and set(seeds.tolist()) <= set(generators(L)), label
        assert len(seeds) == kept_orbit_count(label), label
        report = check_jacobi(L)
        assert report.ok and report.lift_certified, label


def _coxeter_orbits(L, seeds) -> list[int]:
    """Every root generator g_{c^j a} with g_a among ``seeds``, ascending."""
    step = orbit_decomposition(L.lie_type, "coxeter_bar").step
    orbit = {x - L.rank for x in seeds}
    for _ in range(L.lie_type.coxeter_number):
        orbit |= {int(step[a]) for a in orbit}
    return sorted(L.rank + a for a in orbit)


@pytest.mark.parametrize("label", ALL_ACCEPTED_LABELS)
def test_swept_seeds_generate_by_their_coxeter_orbits(label):
    # The seeds check_jacobi sweeps and their images under the lift of c,
    # g_a -> g_{ca}, generate the whole algebra: read pair by pair through
    # bracket, sharing no code with the lift's certificate.
    L = build(label)
    seeds, certified = liealg._jacobi_seeds(L)
    assert certified
    assert closure_dimension(L, _coxeter_orbits(L, seeds.tolist())) == \
        L.rank + len(L.root_system)


@pytest.mark.parametrize("label", ALL_ACCEPTED_LABELS)
def test_serre_relations(label):
    # e_i = g_{a_i}, f_i = -g_{-a_i} and h_i = D_i satisfy Serre's relations
    # (Humphreys, Introduction to Lie Algebras and Representation Theory,
    # 18.1), read pair by pair through ``bracket``, which shares no code with
    # check_jacobi.
    L = build(label)
    k, C = L.rank, cartan_matrix(label).tolist()
    unit = np.eye(k, dtype=np.int64)
    e = [L.root_gen(unit[i]) for i in range(k)]
    f = [-L.root_gen(-unit[i]) for i in range(k)]
    h = [L.cartan_gen(i + 1) for i in range(k)]
    zero = AlgebraElement(())
    for i in range(k):
        for j in range(k):
            assert bracket(L, h[i], e[j]) == e[j].scaled(C[i][j])
            assert bracket(L, h[i], f[j]) == f[j].scaled(-C[i][j])
            assert bracket(L, e[i], f[j]) == (h[i] if i == j else zero)
            if i != j:
                x, y = e[j], f[j]
                for _ in range(1 - C[i][j]):
                    x, y = bracket(L, e[i], x), bracket(L, f[i], y)
                assert x.is_zero and y.is_zero, (i, j)
