"""The sparse structure-constant table: closed forms, size bounds and policy."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from geomlie.lattice import make_type
from geomlie.liealg import MAX_JACOBI_TERMS, build, killing_form, term_bounds
from geomlie.rootsys import enumerate_roots
from geomlie.verify import ALL_TYPE_LABELS


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


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
def test_killing_negative_control(label):
    # One flipped [g_a, g_b] coefficient must move the Killing form.
    L = build(label)
    T = L.table
    row = int(np.flatnonzero((T.i >= L.rank) & (T.j >= L.rank) & (T.m >= L.rank))[0])
    T.c[row] = -T.c[row]
    assert not np.array_equal(killing_form(L), closed_form_killing(label))


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
