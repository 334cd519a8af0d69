"""The Lie algebra built from roots, variation and the Seifert data.

Basis: the k Cartan generators D_1..D_k (variation images of the simple
arcs) followed by one generator g_r per root r in lexicographic order.
Bracket rules:

* [h, h'] = 0 on the Cartan part,
* [D_i, g_b] = (a_i, b) g_b,
* [g_a, g_{-a}] = -var(a),
* [g_a, g_b] = N(a, b) g_{a+b} when a+b is a root, else 0,

with the sign N(a, b) = (-1)^(var(b) . a) read off the intersection matrix
(:func:`root_signs`).  All structure constants live in one sparse
:class:`StructureTable`: one row per nonzero ordered basis bracket term and
one row index.  The bracket, the antisymmetry, Jacobi, Killing and sl2
checks, the matrix model and the export all read the table of the algebra
they are given, so a corrupted coefficient shows up in every check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._exact import _ranges, integer_array, is_nonsingular
from .lattice import LieType, as_type, cartan_matrix, per_type, seifert_matrix
from .rootsys import Root, RootSystem, enumerate_roots

__all__ = [
    "AlgebraElement",
    "LieAlgebra",
    "StructureTable",
    "JacobiReport",
    "MAX_JACOBI_TERMS",
    "term_bounds",
    "n_sign",
    "root_signs",
    "build",
    "bracket",
    "check_antisymmetry",
    "check_jacobi",
    "killing_form",
    "is_nondegenerate",
    "check_sl2",
    "has_slk_model",
    "slk_model_check",
    "export_structure_constants",
    "load_structure_constants",
]

# ``build`` refuses a type whose Jacobi join could exceed this many terms.
# On the antisymmetric tables ``build`` makes, check_jacobi joins only the
# i < j rows and holds about 13 bytes per term of the full join at its peak
# (tracemalloc, E8: 1.17M terms, 15 MB), so the limit keeps it under about
# 150 MB; any other table joins every row, at about 26 bytes per term.  The
# join is never smaller than the table, so this bounds the table too.  A31
# (dimension 1023, within check_jacobi's 1024) is the largest A type accepted.
MAX_JACOBI_TERMS = 10_000_000
# check_jacobi reports at most this many violating triples.
MAX_JACOBI_VIOLATIONS = 100_000


def n_sign(t: LieType | str, alpha, beta) -> int:
    """Bracket sign N(alpha, beta) = (-1)^(var(beta) . alpha) for two roots."""
    t = as_type(t)
    B = seifert_matrix(t)
    C = cartan_matrix(t)
    a, b = integer_array(alpha), integer_array(beta)
    for v in (a, b):
        if int(v @ C @ v) != 2:
            raise ValueError(f"{tuple(v)} is not a root")
    return -1 if int(b @ B @ a) % 2 else 1


def root_signs(t: LieType | str) -> np.ndarray:
    """N[a, b] = (-1)^(var(b) . a) where a + b is a root ((a, b) = -1), else 0, in root order."""
    t = as_type(t)
    X = enumerate_roots(t).coords
    S = X @ seifert_matrix(t) @ X.T  # S[b, a] = var(b) . a, so (a, b) = S[a, b] + S[b, a]
    return np.where(S + S.T == -1, 1 - 2 * (S.T % 2), 0)


@dataclass(frozen=True)
class AlgebraElement:
    """Sparse integer combination of basis elements, in canonical form."""

    terms: tuple[tuple[int, int], ...]  # (basis index, coefficient), index-sorted

    @staticmethod
    def from_dict(d: dict[int, int]) -> "AlgebraElement":
        return AlgebraElement(tuple(sorted((i, c) for i, c in d.items() if c != 0)))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        d = dict(self.terms)
        for i, c in other.terms:
            d[i] = d.get(i, 0) + c
        return AlgebraElement.from_dict(d)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(tuple((i, -c) for i, c in self.terms))

    def scaled(self, s: int) -> "AlgebraElement":
        if s == 0:
            return AlgebraElement(())
        return AlgebraElement(tuple((i, s * c) for i, c in self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms


ZERO = AlgebraElement(())


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions in a sorted array where a run of equal values begins."""
    return np.flatnonzero(np.r_[len(ordered) > 0, ordered[1:] != ordered[:-1]])


def _group_sums(key: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the sum of ``values`` over each."""
    order = np.argsort(key)
    key = key[order]
    first = _run_starts(key)
    return key[first], np.add.reduceat(values[order], first)


@dataclass(frozen=True)
class StructureTable:
    """Sparse structure constants: [e_i, e_j] has coefficient c on e_m.

    Canonical: one row per (i, j, m) with a nonzero coefficient, sorted by
    (i, j, m), so one bracket map has one table.  The rows of [e_i, e_j]
    are ``start[i * n + j]:start[i * n + j + 1]``, n the dimension:
    ``start`` is an int32 array of n^2 + 1 row offsets.  Make a table with
    :meth:`from_rows`, which keeps the rows and the index in step.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    m: np.ndarray
    c: np.ndarray
    start: np.ndarray

    @classmethod
    def from_rows(cls, n: int, i, j, m, c) -> "StructureTable":
        """The read-only canonical table of dimension n from the rows (i, j, m, c), in any order.

        Rows that share an (i, j, m) are summed and a zero sum is dropped,
        so two row sets of one bracket map give equal tables.
        """
        i, j, m, c = (integer_array(col) for col in (i, j, m, c))
        if any(col.size and not 0 <= col.min() <= col.max() < n for col in (i, j, m)):
            raise ValueError("basis index out of range")
        key, c = _group_sums((i * n + j) * n + m, c)
        nonzero = c != 0
        key, c = key[nonzero], c[nonzero]
        pair, m = np.divmod(key, n)
        i, j = np.divmod(pair, n)
        start = np.zeros(n * n + 1, dtype=np.int32)
        np.cumsum(np.bincount(pair, minlength=n * n), out=start[1:])
        for col in (i, j, m, c, start):
            col.setflags(write=False)
        return cls(n, i, j, m, c, start)


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant model of the algebra of one ADE type; its dimension is the table's."""

    lie_type: LieType
    root_system: RootSystem = field(repr=False)
    table: StructureTable = field(repr=False)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def dimension(self) -> int:
        return self.table.n

    # -- basis helpers ----------------------------------------------------
    def cartan_gen(self, i: int) -> AlgebraElement:
        """Generator D_i = var(a_i), 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError("Cartan index out of range")
        return AlgebraElement(((i - 1, 1),))

    def root_gen(self, root) -> AlgebraElement:
        r = tuple(integer_array(root).tolist())
        if r not in self.root_system.index:
            raise ValueError(f"{r} is not a root")
        return AlgebraElement(((self.rank + self.root_system.index[r], 1),))

    def basis_labels(self) -> list[str]:
        labels = [f"h{i + 1}" for i in range(self.rank)]
        labels += ["g[" + ",".join(str(x) for x in r) + "]" for r in self.root_system.roots]
        return labels

    # -- bracket ----------------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> AlgebraElement:
        """Bracket of two basis elements by global index."""
        T = self.table
        n = T.n
        i, j = integer_array((i, j)).tolist()
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("basis index out of range")
        lo, hi = T.start[i * n + j:i * n + j + 2].tolist()
        if hi == lo:
            return ZERO
        if hi == lo + 1:  # every nonzero bracket but [g_a, g_-a] has one term
            return AlgebraElement(((int(T.m[lo]), int(T.c[lo])),))
        return AlgebraElement(tuple(zip(T.m[lo:hi].tolist(), T.c[lo:hi].tolist())))


def term_bounds(t: LieType | str) -> tuple[int, int]:
    """Closed-form upper bounds on (table rows, Jacobi join terms) of a type.

    Each root has exactly 2h - 4 summable partners ((a, b) = -1), each simple
    root pairs nonzero with exactly 4h - 6 roots, and all root supports add up
    to at most twice the positive heights, h k (h + 1) / 3 (Freudenthal-de
    Vries).  A row onto g_c joins the at most 2h - 4 + 2k rows of g_c; a row
    onto D_i joins the 4h - 6 rows of D_i.
    """
    t = as_type(t)
    k, h = t.rank, t.coxeter_number
    summable, cartan_row = 2 * h - 4, 4 * h - 6
    supports = h * k * (h + 1) // 3
    onto_roots = t.root_count * summable + 2 * k * cartan_row  # [g, g] and [D, g], [g, D]
    table = onto_roots + supports
    join = onto_roots * (summable + 2 * k) + supports * cartan_row
    return table, join


@per_type
def build(t: LieType | str) -> LieAlgebra:
    """The structure-constant table of one type, its rows from the four bracket rules.

    Built once per type and shared by every later call, so read-only (``from_rows``).
    """
    table_rows, join_terms = term_bounds(t)
    if join_terms > MAX_JACOBI_TERMS:
        raise ValueError(
            f"{t} is too large: up to {table_rows:,} structure constants and "
            f"{join_terms:,} Jacobi terms, over MAX_JACOBI_TERMS = {MAX_JACOBI_TERMS:,}")
    rs = enumerate_roots(t)
    C = cartan_matrix(t)
    X = rs.coords
    k = t.rank
    n = k + len(rs)
    # [D_i, g_b] = (a_i, b) g_b and [g_b, D_i] = -(a_i, b) g_b.
    HG = C @ X.T
    hi, hb = np.nonzero(HG)
    hv = HG[hi, hb]
    hb = hb + k
    # [g_a, g_-a] = -var(a), one row per nonzero coordinate of a.
    na, nm = np.nonzero(X)
    nv = -X[na, nm]
    nb = k + rs.locate(-X[na])
    # [g_a, g_b] = N(a, b) g_{a+b}.
    N = root_signs(t)
    ra, rb = np.nonzero(N)
    rm = k + rs.locate(X[ra] + X[rb])
    rv = N[ra, rb]
    i = np.concatenate([hi, hb, na + k, ra + k])
    j = np.concatenate([hb, hi, nb, rb + k])
    m = np.concatenate([hb, hb, nm, rm])
    c = np.concatenate([hv, -hv, nv, rv])
    return LieAlgebra(t, rs, StructureTable.from_rows(n, i, j, m, c))


def bracket(L: LieAlgebra, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the basis bracket table."""
    acc: dict[int, int] = {}
    for i, ci in x.terms:
        for j, cj in y.terms:
            for m, c in L.bracket_basis(i, j).terms:
                acc[m] = acc.get(m, 0) + ci * cj * c
    return AlgebraElement.from_dict(acc)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with left[a] == right[b], grouped by a, b ascending.

    Keys are nonnegative ints.  A counting index over the keys of ``right``
    (``bincount``, its running sum and a stable argsort) gives each left key
    its run of right positions directly, with no search.
    """
    size = max(int(left.max(initial=-1)), int(right.max(initial=-1))) + 1
    count = np.bincount(right, minlength=size)
    start = np.cumsum(count) - count
    count = count[left]
    a = np.repeat(np.arange(len(left)), count)
    return a, np.argsort(right, kind="stable")[_ranges(start[left], count)]


def check_antisymmetry(L: LieAlgebra) -> list[tuple[int, int]]:
    """Basis pairs i <= j where [e_i, e_j] != -[e_j, e_i]; empty on a correct table."""
    T, n = L.table, L.dimension
    lo, hi = np.minimum(T.i, T.j), np.maximum(T.i, T.j)
    key, total = _group_sums((lo * n + hi) * n + T.m, T.c)
    pairs = key[total != 0] // n
    return [(int(p // n), int(p % n)) for p in pairs[_run_starts(pairs)]]


@dataclass
class JacobiReport:
    """Outcome of the exhaustive Jacobi sweep.

    ``triples_checked`` counts the cyclic classes of basis triples with a
    nonzero term [[x, y], z]; every other class is zero by the table itself.
    """

    lie_type: LieType
    triples_checked: int
    violations: list[tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def _swap_last(key: np.ndarray) -> np.ndarray:
    """(a, b, c) -> (a, c, b) on triples packed as a << 20 | b << 10 | c."""
    return key & ~0xFFFFF | (key & 1023) << 10 | key >> 10 & 1023


def check_jacobi(L: LieAlgebra) -> JacobiReport:
    """Exhaustive Jacobi check, as a join of the structure table with itself.

    Each row [x, y] -> m meets each row [m, z] -> p in one term of
    [[x, y], z] on e_p.  J(x, y, z) is the sum of that term over the three
    rotations of (x, y, z), so a cyclic class is violated when its terms sum
    to nonzero on some e_p; violations are reported as the smallest rotation
    of the class (at most MAX_JACOBI_VIOLATIONS of them, in lexicographic
    order).  Each term is keyed by its sorted triple a <= b <= c and the
    parity of (x, y, z) against it: the even permutations are the rotations
    of (a, b, c), the odd ones those of (a, c, b), and a triple with a
    repeated index has one class, itself.

    On an antisymmetric table (:func:`check_antisymmetry` finds no pair)
    only the i < j rows are joined: the table being canonical, its i > j
    rows are then exactly the mirrors (j, i, m, -c) of the i < j rows and no
    row has i = j.  The mirror of a term is its negative in the class of
    opposite parity, so the class of (a, b, c) sums to the parity-signed
    total S of the i < j terms and the class of (a, c, b) to -S (the
    Jacobiator is alternating, Humphreys, Introduction to Lie Algebras, 1.1).
    A distinct sorted triple thus stands for two classes that are both
    violated or both clean, and a repeated one for one class whose terms
    cancel pairwise.  Any other table joins all its rows and keys each term
    by the smallest rotation, (a, b, c) or (a, c, b) by parity.

    The five runs of each joined row are bounded by indexing the table's own
    row offsets, ``start[q]`` being the first row with i * n + j >= q, so no
    bound is searched for.

    Each term is one int64 word: the key packed as a << 20 | b << 10 | c,
    then p in 10 bits, then the coefficient offset to be nonnegative in the
    low w bits, w the bit width of twice the largest |c_a c_b|.  Sorting the
    words by value groups the terms by (key, p).  Two inputs cannot be
    packed, and both are refused with ValueError before the join is
    allocated: a dimension over 1024, and coefficients so wide that
    40 + w > 63 bits (max |c| of about 2^11 or more).
    """
    T, n = L.table, L.dimension
    if n > 1 << 10:
        raise ValueError(f"check_jacobi packs basis indices in 10 bits; dimension {n} > 1024")
    cmax = max(int(T.c.max(initial=0)), -int(T.c.min(initial=0))) ** 2
    w = (2 * cmax).bit_length()
    if 40 + w > 63:
        raise ValueError(f"structure constants up to {math.isqrt(cmax)} in absolute value "
                         f"are too wide to pack a Jacobi term in 63 bits")
    i, j, m, c = (col.astype(np.int32) for col in (T.i, T.j, T.m, T.c))
    antisymmetric = not check_antisymmetry(L)
    rows = i < j if antisymmetric else slice(None)
    x, y, mx, cx = i[rows], j[rows], m[rows], c[rows]
    u, v = np.minimum(x, y), np.maximum(x, y)
    # Rows are sorted by (i, j, m), so the rows [m, z] are one block with z
    # ascending.  It splits at u <= v into five runs, z < u, z = u,
    # u < z < v, z = v and z > v, with the sorted triples (z, u, v) in runs
    # 0-1, (u, z, v) in runs 2-3 and (u, v, z) in run 4.  parity is +1 or -1
    # as (x, y, z) is an even or odd permutation of its sorted triple, and 0
    # where an index repeats.  Where u = v the running maximum empties runs 2-3.
    base = mx * n
    bounds = np.stack([base, base + u, base + u + 1, base + v, base + v + 1, base + n])
    bounds = np.maximum.accumulate(T.start[bounds], axis=0)
    count = np.diff(bounds, axis=0)
    parity = np.array([[1], [0], [-1], [0], [1]], dtype=np.int32) * np.sign(y - x)
    head = np.concatenate([u << 10 | v, u << 10 | v, u << 20 | v, u << 20 | v, u << 20 | v << 10])
    # The terms run by run, so z is shifted into place by slices.  Each
    # per-term column is dropped once used (see MAX_JACOBI_TERMS for the peak).
    edge = np.cumsum(count.sum(axis=1))
    count = count.ravel()
    b = _ranges(bounds[:-1].ravel(), count)
    key = j.take(b)
    key[:edge[1]] <<= 20
    key[edge[1]:edge[3]] <<= 10
    key |= np.repeat(head, count)
    coef = c.take(b)
    coef *= np.repeat((parity * cx if antisymmetric else np.tile(cx, 5)).ravel(), count)
    coef += cmax
    p = m.take(b)
    del b
    if not antisymmetric:  # key each term by its class: (a, c, b) where the parity is odd
        odd = np.repeat(parity.ravel() < 0, count)
        key[odd] = _swap_last(key[odd])
        del odd
    word = key.astype(np.int64)
    del key
    word <<= 10
    word |= p
    word <<= w
    word |= coef
    del p, coef
    word.sort()
    coef = word & ((1 << w) - 1)
    coef -= cmax
    word >>= w  # now key << 10 | p
    first = _run_starts(word)
    total = np.add.reduceat(coef, first)
    del coef
    triple = word[first] >> 10
    del word, first
    classes = triple[_run_starts(triple)]
    bad = triple[total != 0]
    bad = bad[_run_starts(bad)]
    if antisymmetric:
        mid = classes >> 10 & 1023
        repeated = (classes >> 20 == mid) | (mid == classes & 1023)
        checked = 2 * len(classes) - int(np.count_nonzero(repeated))
        bad = np.sort(np.concatenate([bad, _swap_last(bad)]))
    else:
        checked = len(classes)
    violations = [(int(q >> 20), int(q >> 10 & 1023), int(q & 1023))
                  for q in bad[:MAX_JACOBI_VIOLATIONS]]
    return JacobiReport(L.lie_type, checked, violations)


def killing_form(L: LieAlgebra) -> np.ndarray:
    """Killing matrix K[u, v] = tr(ad u . ad v) over the canonical basis.

    tr(ad u . ad v) = sum over w, m of ad_u[m, w] ad_v[w, m]: each table row
    [u, w] -> m meets each row [v, m] -> w, all in exact integers.
    """
    T, n = L.table, L.dimension
    a, b = _join(T.j * n + T.m, T.m * n + T.j)
    K = np.zeros((n, n), dtype=np.int64)
    np.add.at(K, (T.i[a], T.i[b]), T.c[a] * T.c[b])
    if not np.array_equal(K, K.T):
        raise RuntimeError("Killing matrix is not symmetric")
    return K


def is_nondegenerate(K: np.ndarray) -> bool:
    """Exact nondegeneracy of a Killing matrix (det != 0)."""
    return is_nonsingular(K)


def check_sl2(L: LieAlgebra) -> list[Root]:
    """Roots a whose triple (e, f, h) = (g_a, g_{-a}, var(a)) breaks an sl2 law.

    [h, e] = 2e, [h, f] = -2f, [e, f] = -h.  As h_{-a} = -h_a, the second law
    for a is the first for -a: two exact sums over the table decide all three,
    [h_b, g_b] - 2 g_b and [g_a, g_{-a}] + var(a) per (root, output).
    """
    T, n, k, rs = L.table, L.dimension, L.rank, L.root_system
    X = rs.coords
    neg = rs.locate(-X)
    cartan = np.flatnonzero((T.i < k) & (T.j >= k))  # the rows [D_i, g_b]
    b = T.j[cartan] - k
    key, total = _group_sums(np.r_[b * n + T.m[cartan], np.arange(len(rs)) * (n + 1) + k],
                             np.r_[X[b, T.i[cartan]] * T.c[cartan], np.full(len(rs), -2)])
    law1 = key[total != 0] // n
    pair = np.flatnonzero(T.j == np.r_[np.full(k, -1), k + neg][T.i])  # the rows [g_a, g_{-a}]
    na, nm = np.nonzero(X)
    key, total = _group_sums(np.r_[(T.i[pair] - k) * n + T.m[pair], na * n + nm],
                             np.r_[T.c[pair], X[na, nm]])
    bad = np.unique(np.r_[law1, neg[law1], key[total != 0] // n])
    return [rs.roots[r] for r in bad.tolist()]


def has_slk_model(t: LieType) -> bool:
    """Whether :func:`slk_model_check` covers the type: A1 up to A8."""
    return t.family == "A" and t.rank <= 8


def slk_model_check(L: LieAlgebra) -> bool:
    """Does the traceless-matrix correspondence preserve every basis bracket of L?

    Maps D_i to E_ii - E_{i+1,i+1}, the root with support [i, j) to E_{i,j}
    and its negative to -E_{j,i}, images of at most two entries.  Joining
    the entries (u, a, b) and (v, b, c) on b gives the terms of [A_u, A_v]
    at (a, c), and each table row [u, v] -> m subtracts its coefficient
    times the image of e_m: every sum per (u, v, a, c) must be zero.  The
    flattened images must also be independent, i.e. their Gram matrix
    nonsingular (an exact mod-p certificate with a Bareiss fallback).  A
    type outside :func:`has_slk_model` raises ValueError.
    """
    if not has_slk_model(L.lie_type):
        raise ValueError(f"{L.lie_type}: the traceless-matrix model covers A1 to A8")
    n, k, T, X = L.dimension, L.rank, L.table, L.root_system.coords
    s, d, support, up = k + 1, np.arange(k), X != 0, X.sum(axis=1) > 0
    start, end = support.argmax(axis=1), k - support[:, ::-1].argmax(axis=1)
    # The image entries: basis index, row, column and value.
    owner = np.r_[d, d, k + np.arange(len(X))]
    row = np.r_[d, d + 1, np.where(up, start, end)]
    col = np.r_[d, d + 1, np.where(up, end, start)]
    value = np.r_[np.repeat([1, -1], k), np.where(up, 1, -1)]
    flat = np.zeros((n, s * s), dtype=np.int64)
    flat[owner, row * s + col] = value
    if not is_nonsingular(flat @ flat.T):
        return False
    x, y = _join(col, row)  # A_u[a, b] A_v[b, c] with u = owner[x], v = owner[y]
    r, e = _join(T.m, owner)  # row r of the table and an entry of the image of its output
    product = value[x] * value[y]
    u = np.r_[owner[x], owner[y], T.i[r]]
    v = np.r_[owner[y], owner[x], T.j[r]]
    a = np.r_[row[x], row[x], row[e]]
    c = np.r_[col[y], col[y], col[e]]
    _, total = _group_sums(((u * n + v) * s + a) * s + c,
                           np.r_[product, -product, -T.c[r] * value[e]])
    return not total.any()


def _upper_half(L: LieAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The i < j rows of the table as (i, j, m, c) rows, and which rows open a bracket.

    A row opens [e_i, e_j] when it is row start[i * n + j] of the table;
    antisymmetry implies the other half.
    """
    T = L.table
    upper = np.flatnonzero(T.i < T.j)
    fields = np.stack([col[upper] for col in (T.i, T.j, T.m, T.c)], axis=1)
    return fields, upper == T.start[fields[:, 0] * L.dimension + fields[:, 1]]


def _row_templates(opening: str, term: str, closings: tuple[str, str]) -> np.ndarray:
    """The %-templates of one [m, c] row, indexed by 2 * (opens its bracket) + (closes it).

    An opening row first formats the bracket's i and j.
    """
    return np.array([head + term + tail for head in ("", opening) for tail in closings])


_JSON_ROW = _row_templates('  {\n   "i": %d,\n   "j": %d,\n   "terms": [\n',
                           "    [\n     %d,\n     %d\n    ]", ("", "\n   ]\n  }"))
_CSV_ROW = _row_templates("%d,%d,", "%d:%d", (";", "\n"))


def _fill_rows(L: LieAlgebra, templates: np.ndarray, sep: str) -> str:
    """The i < j rows written by one %-format pass over a template per row."""
    fields, first = _upper_half(L)
    last = np.r_[first[1:], True]
    keep = np.ones(fields.shape, dtype=bool)
    keep[:, :2] = first[:, None]
    return sep.join(templates[2 * first + last].tolist()) % tuple(fields[keep].tolist())


def _json_text(L: LieAlgebra) -> str:
    basis = [f"  {json.dumps(label)}" for label in L.basis_labels()]
    rows = _fill_rows(L, _JSON_ROW, ",\n")
    # json.dumps writes an empty list as [] even with indent.
    brackets = f"[\n{rows}\n ]" if rows else "[]"
    # The keys in sort_keys order: basis, brackets, dimension, type.
    return ('{\n "basis": [\n' + ",\n".join(basis) + '\n ],\n "brackets": ' + brackets
            + f',\n "dimension": {L.dimension},\n "type": {json.dumps(L.lie_type.label)}\n}}\n')


def _csv_text(L: LieAlgebra) -> str:
    # One line "i,j,m:c;m:c..." per bracket.
    return "i,j,terms\n" + _fill_rows(L, _CSV_ROW, "")


_RENDERERS = {"json": _json_text, "csv": _csv_text}


def export_structure_constants(L: LieAlgebra, sink, fmt: str = "json") -> None:
    """Write the i < j structure constants deterministically as JSON or CSV.

    JSON is byte for byte ``json.dumps(payload, indent=1, sort_keys=True)``
    plus a newline; the payload holds "type", "dimension", "basis" (labels)
    and "brackets", {"i", "j", "terms": [[m, c], ...]} per nonzero [e_i, e_j]
    with i < j.  CSV has the header ``i,j,terms`` and one line
    ``i,j,m:c;m:c...`` per bracket; no field holds a comma or a quote, so
    nothing is quoted; only the [g_a, g_-a] lines hold several terms.
    ``sink`` is a path or a text file; an unknown ``fmt`` raises ValueError
    before any file is opened.
    """
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    text = _RENDERERS[fmt](L)
    if isinstance(sink, (str, bytes, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sink.write(text)


def load_structure_constants(source) -> dict:
    """Parse a JSON export, from a path or a text file, back into its payload dict."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.load(source)
