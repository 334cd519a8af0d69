"""The Lie algebra built from roots, variation and the Seifert data.

Basis: the k Cartan generators D_1..D_k (variation images of the simple
arcs) followed by one generator g_r per root r in lexicographic order.
Bracket rules:

* [h, h'] = 0 on the Cartan part,
* [D_i, g_b] = (a_i, b) g_b,
* [g_a, g_{-a}] = -var(a),
* [g_a, g_b] = N(a, b) g_{a+b} when a+b is a root, else 0,

with the sign N(a, b) = (-1)^(var(b) . a).  The pairs, their sums and
parities come from :func:`~geomlie.rootsys.summable_pairs`, spread along the
orbits of the Coxeter element, which preserves the intersection matrix and
so N.  A type of dimension k + |Phi| over MAX_DIMENSION is refused before
anything is built.  All structure constants live in one sparse
:class:`StructureTable`: one row per nonzero ordered basis bracket term and
one row index.  The bracket, the antisymmetry, Jacobi, Killing and sl2 checks,
the matrix model and the export all read the table of the algebra they are
given, so a corrupted coefficient shows up in every check.

Every rule respects the root grading (wt D_i = 0, wt g_a = a).  A table
whose rows keep the rules' shapes, its root rows exactly the summable pairs,
has one layout (:attr:`LieAlgebra._layout`), decided once per algebra: the
coefficients of the four rules as arrays.  The antisymmetry decision,
the lift of c, the Killing form and the sl2 laws read that layout alone,
and on it the roots of the Jacobi generating set are the type's.  c
permutes the summable pairs, so the lift maps each root row to the single
row of its image pair, and a graded table has one nonzero row per summable
pair, so every additive witness x + y = z of the roots is a row
[g_x, g_y] -> g_z.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._exact import SparseSquare, _bands, _ranges, integer_array, is_nonsingular
from .lattice import LieType, as_type, cartan_matrix, per_type, seifert_matrix
from .rootsys import (Root, RootSystem, coxeter_matrix, enumerate_roots, orbit_decomposition,
                      summable_pairs)

__all__ = [
    "AlgebraElement",
    "LieAlgebra",
    "StructureTable",
    "JacobiReport",
    "MAX_DIMENSION",
    "refuse_oversized",
    "n_sign",
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

# ``build`` refuses a type of dimension n = k + |Phi| over this bound, a policy:
# it keeps check_jacobi's key, four fields of (n - 1).bit_length() bits, within
# 40 bits (so _stable_order has 23 bits for a group's positions), and the int32
# n^2 + 1 row index within 4 MB.
# The largest types accepted are A31 (n = 1023) and D22 (946).
MAX_DIMENSION = 2**10
# check_jacobi sums the terms of consecutive generators in groups of about
# this many terms.  A group reads only its generators' row ranges, so the
# budget sets the peak more than the time.  In process on a 2-vCPU Xeon VM,
# the median ms of 41 rounds alternating the budgets and the tracemalloc MB
# of a warm call, measured when every generator was swept (a built table is
# now swept on one or two seeds, one group at each budget here; at 2^14 its
# warm peak is 0.61 MB on E8 and 1.44 MB on A31):
#   budget   E8              D12             D20              A31
#   2^13     3.20 ms 1.13 MB 2.64 ms 0.98 MB 13.0 ms  3.56 MB 15.7 ms  4.06 MB
#   2^14     3.09 ms 1.67 MB 2.55 ms 1.59 MB 12.9 ms  3.56 MB 14.0 ms  4.06 MB
#   2^15     3.00 ms 2.41 MB 2.51 ms 2.43 MB 12.6 ms  4.03 MB 14.6 ms  4.06 MB
#   2^16     2.94 ms 4.19 MB 2.48 ms 3.44 MB 12.2 ms  6.72 MB 14.0 ms  6.48 MB
_JACOBI_BAND_TERMS = 1 << 14
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


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions in a sorted array where a run of equal values begins."""
    return np.flatnonzero(np.concatenate([[len(ordered) > 0], ordered[1:] != ordered[:-1]]))


def _stable_order(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.sort(key) and its stable argsort, by one sort of the words key << b | position."""
    b = len(key).bit_length()
    if key.size and (int(key.min()) < 0 or int(key.max()) >> (63 - b)):
        raise ValueError(f"sort keys of {len(key)} rows must lie in [0, 2^{63 - b})")
    order = np.arange(len(key))
    word = np.left_shift(key, b, dtype=np.int64)
    word |= order
    word.sort()
    np.bitwise_and(word, (1 << b) - 1, out=order)
    return np.right_shift(word, b, out=word), order


def _group_sums(key: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the sum of ``values`` over each."""
    key, order = _stable_order(key)
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
        # start[q] is the first row of a pair >= q: the run starts, each repeated over
        # the pairs since the last run's (no n^2 count array).
        first = _run_starts(pair)
        start = np.repeat(np.append(first, len(pair)).astype(np.int32),
                          np.diff(np.concatenate([[-1], pair[first], [n * n]])))
        for col in (i, j, m, c, start):
            col.setflags(write=False)
        return cls(n, i, j, m, c, start)


class _Layout(NamedTuple):
    """Every coefficient of a graded table, by bracket rule; read-only int64 arrays."""

    W: np.ndarray  # k x |Phi|: [D_i, g_b] -> g_b
    U: np.ndarray  # |Phi| x k: [g_b, D_i] -> g_b
    V: np.ndarray  # |Phi| x k: [g_a, g_{-a}] -> D_d
    v: np.ndarray  # [g_a, g_b] -> g_{a+b}, in summable_pairs order


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

    @cached_property
    def _layout(self) -> _Layout | None:
        """The table as the coefficients of :func:`build`'s four bracket rules, or None.

        None unless the dimension is k + |Phi| and every row has a rule's
        shape: [D_i, g_b] -> g_b, [g_b, D_i] -> g_b, [g_a, g_{-a}] -> D_d
        (j = n - 1 - a) or [g_a, g_b] -> g_{a+b}, whose rows must be
        :func:`~geomlie.rootsys.summable_pairs` as arrays, sums included.
        These shapes are the root grading: with wt(D_i) = 0 and wt(g_a) = a,
        every row (i, j, m) has wt(m) = wt(i) + wt(j).  Decided once per
        algebra, in one vectorised pass over the rows: the rows are sorted by
        (i, j, m), so the rows [D_i, .] are the first start[k n] and are
        decided alone.  A ``dataclasses.replace`` copy decides afresh.
        """
        T, n, k = self.table, self.dimension, self.rank
        R = n - k
        if R != len(self.root_system):
            return None
        p = int(T.start[k * n])  # rows [:p] are the [D_i, .] rows, rows [p:] the [g_a, .]
        j, m = T.j[:p], T.m[:p]
        if not ((j >= k) & (m == j)).all():
            return None
        i, j, m, c = T.i[p:], T.j[p:], T.m[p:], T.c[p:]
        if not np.where(j < k, m == i, (m >= k) | (i + j == n - 1 + k)).all():
            return None
        mirror, coroot = j < k, m < k
        root = ~(mirror | coroot)
        if not all(np.array_equal(x[root] - k, y)
                   for x, y in zip((i, j, m), summable_pairs(self.lie_type)[:3])):
            return None
        W, U, V = (np.zeros(shape, dtype=np.int64) for shape in ((k, R), (R, k), (R, k)))
        W[T.i[:p], T.j[:p] - k] = T.c[:p]
        U[i[mirror] - k, j[mirror]] = c[mirror]
        V[i[coroot] - k, m[coroot]] = c[coroot]
        layout = _Layout(W, U, V, c[root])
        for a in layout:
            a.setflags(write=False)
        return layout

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
        """[e_i, e_j] by global index: :func:`bracket` of the two basis elements.

        ``bracket`` is the one reader of the table's rows, and it validates
        each index once.
        """
        return bracket(self, AlgebraElement(((i, 1),)), AlgebraElement(((j, 1),)))


def refuse_oversized(t: LieType | str) -> None:
    """ValueError naming the type if its dimension is over MAX_DIMENSION; nothing is built."""
    t = as_type(t)
    if t.dimension > MAX_DIMENSION:
        raise ValueError(f"{t} is too large: dimension {t.dimension:,}, "
                         f"over MAX_DIMENSION = {MAX_DIMENSION:,}")


@per_type
def build(t: LieType | str) -> LieAlgebra:
    """The structure-constant table of one type, its rows from the four bracket rules.

    Built once per type and shared by every later call, so read-only (``from_rows``).
    """
    refuse_oversized(t)
    rs = enumerate_roots(t)
    X, k, n = rs.coords, t.rank, t.dimension
    # [D_i, g_b] = (a_i, b) g_b and [g_b, D_i] = -(a_i, b) g_b.
    HG = cartan_matrix(t) @ X.T
    hi, hb = np.nonzero(HG)
    hv = HG[hi, hb]
    hb = hb + k
    # [g_a, g_-a] = -var(a), one row per nonzero coordinate of a; g_-a is e_{n - 1 - a}.
    na, nm = np.nonzero(X)
    nv = -X[na, nm]
    nb = n - 1 - na
    # [g_a, g_b] = N(a, b) g_{a+b} with N(a, b) = (-1)^(var(b) . a) = (-1)^(b^t B a).
    ra, rb, rm, parity = summable_pairs(t)
    i = np.concatenate([hi, hb, na + k, ra + k])
    j = np.concatenate([hb, hi, nb, rb + k])
    m = np.concatenate([hb, hb, nm, rm + k])
    c = np.concatenate([hv, -hv, nv, 1 - 2 * parity])
    return LieAlgebra(t, rs, StructureTable.from_rows(n, i, j, m, c))


def _basis_index(i, n: int) -> int:
    """A basis index of a table of dimension n as a Python int.

    ValueError if it is not an integer or not in [0, n): a negative index
    would read another bracket's rows.
    """
    if not isinstance(i, int):
        i = integer_array(i).item()
    if not 0 <= i < n:
        raise ValueError("basis index out of range")
    return i


def bracket(L: LieAlgebra, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the basis bracket table.

    Reads the rows start[i * n + j]:start[i * n + j + 1] of each pair of
    terms as Python ints; each term's index is validated once, y's before
    the loop and each of x's in it.
    """
    T, n = L.table, L.dimension
    start, M, C = T.start, T.m, T.c
    right = [(_basis_index(j, n), cj) for j, cj in y.terms]
    acc: dict[int, int] = {}
    for i, ci in x.terms:
        row = _basis_index(i, n) * n
        for j, cj in right:
            for r in range(start.item(row + j), start.item(row + j + 1)):
                m = M.item(r)
                acc[m] = acc.get(m, 0) + ci * cj * C.item(r)
    return AlgebraElement.from_dict(acc)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with left[a] == right[b], grouped by a, b ascending.

    Keys are nonnegative ints.  Sorted by key (:func:`_stable_order`), the
    right positions fall into one run per distinct key, in ascending order,
    and an int32 slot per key value, the number of its run, gives each left
    key its run directly, with no search.
    """
    ordered, order = _stable_order(right)
    first = _run_starts(ordered)
    slot = np.full(max(int(left.max(initial=-1)), int(right.max(initial=-1))) + 1, len(first),
                   dtype=np.int32)
    slot[ordered[first]] = np.arange(len(first))
    run = slot[left]
    del ordered, slot
    # Run r is order[edge[r]:edge[r + 1]]; the last run, empty, is that of a key right lacks.
    edge = np.append(first, [len(right), len(right)])
    start = edge[run]
    count = edge[run + 1] - start
    a = np.repeat(np.arange(len(left)), count)
    return a, order[_ranges(start, count)]


def check_antisymmetry(L: LieAlgebra) -> list[tuple[int, int]]:
    """Basis pairs i <= j where [e_i, e_j] != -[e_j, e_i]; empty on a correct table.

    A table with a layout (:attr:`LieAlgebra._layout`) has only its four
    rules' rows, none on the diagonal, and each rule is its own mirror's, so
    three comparisons decide it: U = -W^t for [g_b, D_i] against [D_i, g_b],
    V[-a] = -V[a] for [g_{-a}, g_a] against [g_a, g_{-a}] (-roots[a] is
    roots[-1 - a]), and v[swap] = -v for [g_b, g_a] against [g_a, g_b]
    (:func:`_pair_permutations`).  A table with no layout, or one that fails
    them, has its defect pairs listed by one packed sort of all its rows,
    summed per (min(i, j), max(i, j), m).
    """
    layout = L._layout
    if layout is not None:
        W, U, V, v = layout
        if (np.array_equal(U, -W.T) and np.array_equal(V[::-1], -V)
                and np.array_equal(v[_pair_permutations(L.lie_type)[2]], -v)):
            return []
    T, n = L.table, L.dimension
    lo, hi = np.minimum(T.i, T.j), np.maximum(T.i, T.j)
    key, total = _group_sums((lo * n + hi) * n + T.m, T.c)
    pairs = key[total != 0] // n
    return [(int(p // n), int(p % n)) for p in pairs[_run_starts(pairs)]]


@dataclass
class JacobiReport:
    """Outcome of the Jacobi check on a generating set (:func:`check_jacobi`).

    ``antisymmetric`` is the check's own antisymmetry decision
    (:func:`check_antisymmetry` found no pair; three array comparisons on
    a table with a layout, no sort).  A table that is not antisymmetric is
    not swept: it reads 0 triples and no violation, and is not ok.
    ``lift_certified`` is True when :func:`_lift_certified` proved,
    on the table's layout, that the lift of the Coxeter element c preserves
    the table, so that one seed per kept orbit of :func:`_seed_orbits` was
    swept.  It is False on a table that is not antisymmetric, and on one
    without a layout or whose lift fails, where the whole generating set was
    swept.  ``triples_checked`` counts the (s, y, z) with s a swept seed
    (:func:`_jacobi_seeds`) and y < z that have a nonzero term of
    J(s, y, z); the others are zero by the table.  On a table with a layout
    ``antisymmetric`` and ``lift_certified`` are read off the layout and the
    type, and only the sweep reads the rows.
    """

    lie_type: LieType
    triples_checked: int
    violations: list[tuple[int, int, int]]
    antisymmetric: bool
    lift_certified: bool

    @property
    def ok(self) -> bool:
        return self.antisymmetric and not self.violations


def _levels(X: np.ndarray, h: int) -> np.ndarray:
    """The level of each basis element over the roots X: h for D_i, ht a for g_a with a > 0
    and h - ht |a| for a < 0, so that e_1..e_k and g_{-theta} are the elements of level 1."""
    height = X.sum(axis=1)
    return np.concatenate([np.full(X.shape[1], h), np.where(height > 0, height, h + height)])


def _generating_set(L: LieAlgebra) -> np.ndarray:
    """The basis elements whose derivations :func:`check_jacobi` checks, ascending.

    These are e_1..e_k and g_{-theta}, the images at t = 1 of the affine
    generators (Kac, Infinite-Dimensional Lie Algebras, ch. 7) and the
    elements of level 1 (:func:`_levels`), and every element the generation
    certificate leaves uncovered.  A row [s, a] -> c alone in its bracket,
    with s a generator and a of lower level than c, covers c: e_c is a
    multiple of [e_s, e_a].  By induction on the level, the returned
    elements generate the table.  On a table with a layout the root part
    is the type's (:func:`_graded_generators`), and D_d is covered when the
    row V[s] of a generator s has its single nonzero at d.  Any other table
    of dimension k + |Phi| has its rows' shapes scanned, and a table not
    laid out on its root system (dimension other than k + |Phi|) has no
    levels, and every element is returned.
    """
    T, n, k = L.table, L.dimension, L.rank
    if L._layout is not None:
        generators, roots, _ = _graded_generators(L.lie_type)
        V = L._layout.V[generators]
        uncovered = np.ones(k, dtype=bool)
        uncovered[np.nonzero(V[np.count_nonzero(V, axis=1) == 1])[1]] = False
        return np.concatenate([np.flatnonzero(uncovered), k + roots])
    if n != k + len(L.root_system):
        return np.arange(n)
    level = _levels(L.root_system.coords, L.lie_type.coxeter_number)
    pair = T.i * n + T.j
    alone = T.start[pair + 1] - T.start[pair] == 1
    covered = np.zeros(n, dtype=bool)
    covered[T.m[alone & (level[T.i] == 1) & (level[T.j] < level[T.m])]] = True
    return np.flatnonzero((level == 1) | ~covered)


@per_type
def _graded_generators(t: LieType) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The generating set's roots on every table of type t with a layout, as root indices.

    ``generators`` are the roots of level 1, alpha_1..alpha_k and -theta
    (:func:`_levels`).  A laid-out table has one nonzero row [g_x, g_y] ->
    g_{x + y} per summable pair, alone in its bracket, so the roots the
    generation certificate covers, x + y with x a generator and y of lower
    level than x + y, are a function of the type: ``roots`` are the
    generators and every root left uncovered, ascending, the root part of
    :func:`_generating_set`.  ``seeds`` are the smallest of ``roots`` in
    each c-orbit of :func:`_seed_orbits`, the root seeds of
    :func:`_jacobi_seeds` when the lift is certified.  Computed from the
    type alone, on first use.
    """
    level = _levels(enumerate_roots(t).coords, t.coxeter_number)[t.rank:]
    ra, rb, rm, _ = summable_pairs(t)
    covered = np.zeros(len(level), dtype=bool)
    covered[rm[(level[ra] == 1) & (level[rb] < level[rm])]] = True
    roots = np.flatnonzero((level == 1) | ~covered)
    orbit = orbit_decomposition(t, "coxeter_bar").orbit_of[roots]
    kept = np.isin(orbit, _seed_orbits(t))
    first = np.unique(orbit[kept], return_index=True)[1]
    return np.flatnonzero(level == 1), roots, np.sort(roots[kept][first])


def _lift_certified(L: LieAlgebra) -> bool:
    """Whether the lift phi: g_a -> g_{ca}, D -> cD of the Coxeter element
    provably preserves an antisymmetric table.

    Read off the layout (:attr:`LieAlgebra._layout`): a table without one is
    not certified.  phi maps each rule's brackets onto the same rule's:

    * [D_i, g_b] -> g_b, the entries of W: phi keeps them when c^t W[:, step] = W;
    * [g_a, g_{-a}] -> D_d, the entries of V: phi keeps them when V[step] = V c^t;
    * [g_a, g_b] -> g_{a+b}, the entries of v: the image bracket
      [g_{ca}, g_{cb}] is the single row of the pair (ca, cb), c(a + b) =
      ca + cb, so phi keeps them when v[cpair] = v (:func:`_pair_permutations`).

    The mirrors [g_b, D_i] are fixed by antisymmetry, and c permutes the
    summable pairs and the pairs (a, -a), so the brackets the table leaves
    zero stay zero: phi[x, y] = [phi x, phi y] for all basis x, y.
    """
    layout = L._layout
    if layout is None:
        return False
    W, _, V, v = layout
    step = orbit_decomposition(L.lie_type, "coxeter_bar").step
    c = coxeter_matrix(L.lie_type)
    return (np.array_equal(c.T @ W[:, step], W) and np.array_equal(V[step], V @ c.T)
            and np.array_equal(v[_pair_permutations(L.lie_type)[0]], v))


@per_type
def _seed_orbits(t: LieType) -> np.ndarray:
    """The c-orbits of roots that :func:`_jacobi_seeds` keeps, ascending.

    Starts from the orbits of alpha_1..alpha_k and -theta (roots[0]) and
    drops them, highest index first, while the additive closure of the
    rest over :func:`~geomlie.rootsys.summable_pairs` is still Phi: one
    orbit is left on A_k, E_k and odd D_k, two on even D_k.  c permutes the
    summable pairs, so each round of the closure reaches whole orbits, and
    the pairs of one root per orbit decide it.  Computed from the type
    alone, on first use; RuntimeError names the type if the generators'
    orbits do not generate Phi.
    """
    dec = orbit_decomposition(t, "coxeter_bar")
    ra, rb, rm, _ = summable_pairs(t)
    # summable_pairs is row-major, with the same number of partners per root.
    width = len(ra) // len(dec.orbit_of)
    reps = np.array([orbit[0] for orbit in dec.orbits])
    x, y, z = (dec.orbit_of[r[(reps[:, None] * width + np.arange(width)).ravel()]]
               for r in (ra, rb, rm))

    def generates(kept: list[int]) -> bool:
        """Whether the closure of the orbits ``kept`` reaches every orbit."""
        reached = np.zeros(len(dec.orbits), dtype=bool)
        reached[kept] = True
        while len(new := z[reached[x] & reached[y] & ~reached[z]]):
            reached[new] = True
        return bool(reached.all())

    height = dec.root_system.coords.sum(axis=1)
    kept = np.unique(dec.orbit_of[[0, *np.flatnonzero(height == 1)]]).tolist()
    for o in kept[::-1]:
        rest = [q for q in kept if q != o]
        if rest and generates(rest):
            kept = rest
    if not generates(kept):
        raise RuntimeError(f"{t}: the c-orbits of alpha_1..alpha_k, -theta do not generate Phi")
    return np.array(kept)


@per_type
def _pair_permutations(t: LieType) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three permutations of the indices of :func:`~geomlie.rootsys.summable_pairs`.

    ``cpair`` takes the pair (a, b) to (ca, cb): c preserves the pairing,
    so (ca, cb) is summable.  ``partner`` takes (a, b) to (-a, a + b),
    whose sum is b, and ``swap`` takes (a, b) to (b, a); both are
    involutions.  The pairs are row-major with each row sorted by partner,
    so the keys a |Phi| + b increase strictly and one np.searchsorted finds
    each image.  Computed from the type alone, on first use.
    """
    ra, rb, rm, _ = summable_pairs(t)
    step, R = orbit_decomposition(t, "coxeter_bar").step, t.root_count
    key = ra * R + rb
    return (key.searchsorted(step[ra] * R + step[rb]), key.searchsorted((R - 1 - ra) * R + rm),
            key.searchsorted(rb * R + ra))


def _jacobi_seeds(L: LieAlgebra) -> tuple[np.ndarray, bool]:
    """The elements :func:`check_jacobi` sweeps, ascending, and whether the lift is certified.

    These are the :func:`_generating_set` when :func:`_lift_certified`
    fails.  When it holds, its Cartan elements and its smallest root
    generator in each orbit of :func:`_seed_orbits`, memoized per type
    (:func:`_graded_generators`): the elements whose ad is a derivation form
    a phi-stable subalgebra, as ad_{phi x} = phi ad_x phi^-1, so it holds
    the whole orbit of each seed.  The lift is certified only on a table
    with a layout, which has one nonzero row [g_x, g_y] -> g_z per summable
    pair x + y = z, so in closure order the subalgebra holds every root
    vector, hence e_1..e_k and g_{-theta}, and with the Cartan seeds the
    whole generating set.  Read on an antisymmetric table only.
    """
    seeds = _generating_set(L)
    if not _lift_certified(L):
        return seeds, False
    k = L.rank
    return np.concatenate([seeds[seeds < k], k + _graded_generators(L.lie_type)[2]]), True


def check_jacobi(L: LieAlgebra) -> JacobiReport:
    """The Jacobi identity of an antisymmetric table, decided on a few seeds.

    Call x good when ad_x is a derivation: [x, [y, z]] = [[x, y], z] +
    [y, [x, z]] for all y, z.  If x is good, ad_[x, y] = [ad_x, ad_y] is a
    commutator of derivations, so the good elements form a subalgebra, and
    if they include a generating set (:func:`_generating_set`, e_1..e_k
    and g_{-theta} on a built table) every element is good.  When the lift
    phi of the Coxeter element is certified an automorphism of the table
    (:func:`_lift_certified`, read off the memoized layout), ad_{phi x} =
    phi ad_x phi^-1, so the good subalgebra is phi-stable, and one seed
    stands for its c-orbit.  The c-orbits kept by :func:`_seed_orbits`
    generate every root additively, and a table with a layout has one
    nonzero row per summable pair, so every root vector is good.  A built
    table is then swept on one seed on A_k, E_k and odd D_k and two on even
    D_k.  Otherwise every generator is a seed (:func:`_jacobi_seeds`).
    On a table with a layout the antisymmetry decision and the seeds are
    read off it and the type, with no pass over the rows.
    On an antisymmetric table the derivation identity of s at (y, z) reads
    J(s, y, z) = 0, and J is alternating, so the Jacobi identity holds
    exactly when J(s, y, z) = 0 for every seed s and y < z, and each
    violated (s, y, z) is a violated Jacobi triple (Humphreys, Introduction
    to Lie Algebras and Representation Theory, 1.1, 1.3 and 18.3; Kostant,
    Amer. J. Math. 81, 1959, for the lift of c).

    Antisymmetry folds J(s, y, z) = [[s, y], z] + [[y, z], s] + [[z, s], y]
    onto the rows [s, .] as A(s, y, z) - A(s, z, y) - [s, [y, z]], with
    A(s, y, z) = [[s, y], z], and every term is read from row ranges, with
    no join: a row [s, y] -> m meets the rows [m, w] -> p in a term of
    A(s, y, w), and a row [s, x] -> p the i < j rows [y, z] -> x in one of
    -[s, [y, z]].  The terms are summed per (s, y, z, p) for consecutive
    groups of seeds of about _JACOBI_BAND_TERMS terms, counted exactly
    before any term is made, over the seeds' rows alone, so a triple is
    summed whole in the group of its s.
    A key holds s, y, z and p in four fields of b = (n - 1).bit_length()
    bits, highest first, so it sorts as (s, y, z, p) and shifts and masks
    read the fields back.
    Violations are reported as the smallest rotation of (s, y, z), in
    lexicographic order, at most MAX_JACOBI_VIOLATIONS of them.

    A table that is not antisymmetric is reported with ``antisymmetric``
    False and is not swept.  The sums run in int64: coefficients wide enough
    to overflow them raise ValueError before any term is made.
    """
    T, n = L.table, L.dimension
    if check_antisymmetry(L):
        return JacobiReport(L.lie_type, 0, [], False, False)
    seeds, certified = _jacobi_seeds(L)
    first = T.start[::n].astype(np.int64)  # the rows [x, .] are first[x]:first[x + 1]
    length = np.diff(first)
    upper = np.flatnonzero(T.i < T.j)
    onto = np.bincount(T.m[upper], minlength=n)
    at = np.concatenate([[0], np.cumsum(onto)])  # onto e_x: by_output[at[x]:at[x + 1]]
    by_output = upper[_stable_order(T.m[upper])[1]]
    # The rows [s, x] -> m of the seeds: those of seeds[g] are of_seeds[edge[g]:edge[g + 1]].
    of_seeds = _ranges(first[seeds], length[seeds])
    edge = np.append(0, np.cumsum(length[seeds]))
    # A row [s, x] -> m makes length[m] A terms and onto[x] B terms.
    made = np.append(0, np.cumsum(length[T.m[of_seeds]] + onto[T.j[of_seeds]]))
    terms = made[edge[1:]] - made[edge[:-1]]
    widest = max(int(T.c.max(initial=0)), -int(T.c.min(initial=0)))
    if widest * widest * int(terms.sum()) >= 1 << 63:
        raise ValueError(f"structure constants up to {widest} in absolute value "
                         f"could overflow the int64 Jacobi sums")
    bits = (n - 1).bit_length()
    mask = (1 << bits) - 1
    checked, bad = 0, [np.zeros(0, dtype=np.int64)]
    for g0, g1 in _bands(terms, _JACOBI_BAND_TERMS):
        rows = of_seeds[edge[g0]:edge[g1]]  # the rows [s, x] -> m
        x, m = T.j[rows], T.m[rows]
        # A(s, x, w): the row [s, x] -> m meets a row [m, w] -> p, a term of
        # J(s, x, w) if x < w and of -J(s, w, x) if w < x; w = x cancels.
        a, b = np.repeat(rows, length[m]), _ranges(first[m], length[m])
        y, w = T.j[a], T.j[b]
        key_a = ((T.i[a] << bits | np.minimum(y, w)) << bits | np.maximum(y, w)) << bits | T.m[b]
        coef_a = np.sign(w - y) * T.c[a] * T.c[b]
        # -[s, [y, z]]: the row [s, x] -> p meets an i < j row [y, z] -> x.
        a, b = np.repeat(rows, onto[x]), by_output[_ranges(at[x], onto[x])]
        key_b = ((T.i[a] << bits | T.i[b]) << bits | T.j[b]) << bits | T.m[a]
        key, coef = _group_sums(np.concatenate([key_a, key_b]),
                                np.concatenate([coef_a, -T.c[a] * T.c[b]]))
        triple = key >> bits
        distinct = triple[_run_starts(triple)]
        checked += int(np.count_nonzero((distinct >> bits ^ distinct) & mask))  # not (s, y, y)
        bad.append(triple[coef != 0])
    bad = np.concatenate(bad)
    s, yz = bad >> 2 * bits, bad & ((1 << 2 * bits) - 1)
    # The smallest rotation of a violated (s, y, z), y < z, is (s, y, z) when
    # s < y and (y, z, s) otherwise: J vanishes on a repeated index.
    rotated = np.unique(np.where(s < yz >> bits, bad, yz << bits | s))[:MAX_JACOBI_VIOLATIONS]
    violations = [(q >> 2 * bits, q >> bits & mask, q & mask) for q in rotated.tolist()]
    return JacobiReport(L.lie_type, checked, violations, True, certified)


def _killing_graded(L: LieAlgebra) -> SparseSquare:
    """The Killing form of a table with a layout (:attr:`LieAlgebra._layout`), by the grading.

    A product of table rows (u, w, m) and (v, m, w) has wt(u) + wt(v) = 0,
    so only the Cartan block and the entries K(g_a, g_{-a}) can be nonzero.
    The rows of D_i are [D_i, g_b] -> g_b with the coefficients W, so the
    Cartan block is W W^t.  K(g_a, g_{-a}) sums c c' over the rows
    (g_a, w, m, c) and their partners (g_{-a}, m, w, c'), which open the
    bracket [g_{-a}, m]:

    * of [g_a, g_b] -> g_{a+b}, the pair p = (a, b), the row of the pair
      partner[p] = (-a, a + b) (:func:`_pair_permutations`): v[p] v[partner[p]];
    * of [g_a, g_{-a}] -> D_d, the row [g_{-a}, D_d] -> g_{-a}: V[a, d] U[-a, d];
    * of [g_a, D_d] -> g_a, the row [g_{-a}, g_a] -> D_d: U[a, d] V[-a, d].

    Exact in int64.
    """
    W, U, V, v = L._layout
    n, k = L.dimension, L.rank
    partner = _pair_permutations(L.lie_type)[1]
    # summable_pairs is row-major, with the same number of pairs per root,
    # and -roots[a] is roots[-1 - a].
    opposite = ((v * v[partner]).reshape(n - k, -1).sum(axis=1)
                + (V * U[::-1]).sum(axis=1) + (U * V[::-1]).sum(axis=1))
    g = np.arange(k, n)
    key = np.concatenate([np.arange(k)[:, None] * n + np.arange(k), g * n + n - 1 + k - g], axis=None)
    return SparseSquare.from_keys(n, key, np.concatenate([W @ W.T, opposite], axis=None))


def _killing_join(T: StructureTable) -> SparseSquare:
    """The Killing form of any table, K[u, v] = tr(ad u . ad v), by joining its rows.

    tr(ad u . ad v) = sum over w, m of ad_u[m, w] ad_v[w, m]: each table row
    [u, w] -> m meets each row [v, m] -> w, all in exact integers, and the
    products are summed per (u, v).  The reference :func:`_killing_graded`
    is tested against, and the only path for a table without a layout.
    """
    n = T.n
    a, b = _join(T.j * n + T.m, T.m * n + T.j)
    key, value = _group_sums(T.i[a] * n + T.i[b], T.c[a] * T.c[b])
    return SparseSquare.from_keys(n, key, value)


def killing_form(L: LieAlgebra) -> SparseSquare:
    """The Killing form K[u, v] = tr(ad u . ad v) over the canonical basis, as its nonzero entries.

    A read-only :class:`~geomlie._exact.SparseSquare`, int64, sorted by
    (row, column); ``np.asarray(K)`` is the dense n x n matrix.  A table
    with a layout (:attr:`LieAlgebra._layout`, decided once per algebra) has
    it read off the grading, the k x k Cartan block and one entry per
    (a, -a), 262 entries of E8's 61,504 (:func:`_killing_graded`; Humphreys,
    Introduction to Lie Algebras and Representation Theory, 8.1-8.2); any
    other table joins its rows (:func:`_killing_join`).  Neither forms an
    n x n array.  RuntimeError if the entries are not symmetric: tr(ad u .
    ad v) = tr(ad v . ad u) on every table, so that would be a fault of the
    path, not of the table.
    """
    K = _killing_join(L.table) if L._layout is None else _killing_graded(L)
    t = np.argsort(K.col * K.n + K.row)  # the entries of the transpose, sorted
    if not (np.array_equal(K.row, K.col[t]) and np.array_equal(K.col, K.row[t])
            and np.array_equal(K.value, K.value[t])):
        raise RuntimeError("Killing matrix is not symmetric")
    return K


def is_nondegenerate(K) -> bool:
    """Exact nondegeneracy of a Killing form (det != 0), as a Python bool.

    Decided on the nonzero entries of ``K`` (a :func:`killing_form`, or a
    dense matrix read through its nonzeros) by
    :func:`~geomlie._exact.is_nonsingular`: on a built table its blocks are
    the Cartan block and one 2 x 2 block per pair {a, -a}.
    """
    return is_nonsingular(K)


def check_sl2(L: LieAlgebra) -> list[Root]:
    """Roots a whose triple (e, f, h) = (g_a, g_{-a}, var(a)) breaks an sl2 law.

    [h, e] = 2e, [h, f] = -2f, [e, f] = -h.  As h_{-a} = -h_a, the second law
    for a is the first for -a.  On a table with a layout
    (:attr:`LieAlgebra._layout`) the rows [D_i, g_b] are W and the rows
    [g_a, g_{-a}] are V, so the first law is sum_i X[b, i] W[i, b] = 2 and the
    third V = -X.  Any other table has two exact sums over its rows decide
    all three, [h_b, g_b] - 2 g_b and [g_a, g_{-a}] + var(a) per (root, output).
    """
    T, n, k, rs = L.table, L.dimension, L.rank, L.root_system
    X = rs.coords
    neg = np.arange(len(rs))[::-1]  # -roots[a] is roots[len - 1 - a]
    layout = L._layout
    if layout is not None:
        law1 = np.flatnonzero((X * layout.W.T).sum(axis=1) != 2)
        law3 = np.flatnonzero((layout.V != -X).any(axis=1))
    else:
        cartan = np.flatnonzero((T.i < k) & (T.j >= k))  # the rows [D_i, g_b]
        b = T.j[cartan] - k
        key, total = _group_sums(
            np.concatenate([b * n + T.m[cartan], np.arange(len(rs)) * (n + 1) + k]),
            np.concatenate([X[b, T.i[cartan]] * T.c[cartan], np.full(len(rs), -2)]))
        law1 = key[total != 0] // n
        # The rows [g_a, g_{-a}].
        pair = np.flatnonzero(T.j == np.concatenate([np.full(k, -1), k + neg])[T.i])
        na, nm = np.nonzero(X)
        key, total = _group_sums(np.concatenate([(T.i[pair] - k) * n + T.m[pair], na * n + nm]),
                                 np.concatenate([T.c[pair], X[na, nm]]))
        law3 = key[total != 0] // n
    bad = np.unique(np.concatenate([law1, neg[law1], law3]))
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
    owner = np.concatenate([d, d, k + np.arange(len(X))])
    row = np.concatenate([d, d + 1, np.where(up, start, end)])
    col = np.concatenate([d, d + 1, np.where(up, end, start)])
    value = np.concatenate([np.repeat([1, -1], k), np.where(up, 1, -1)])
    flat = np.zeros((n, s * s), dtype=np.int64)
    flat[owner, row * s + col] = value
    if not is_nonsingular(flat @ flat.T):
        return False
    x, y = _join(col, row)  # A_u[a, b] A_v[b, c] with u = owner[x], v = owner[y]
    r, e = _join(T.m, owner)  # row r of the table and an entry of the image of its output
    product = value[x] * value[y]
    u = np.concatenate([owner[x], owner[y], T.i[r]])
    v = np.concatenate([owner[y], owner[x], T.j[r]])
    a = np.concatenate([row[x], row[x], row[e]])
    c = np.concatenate([col[y], col[y], col[e]])
    _, total = _group_sums(((u * n + v) * s + a) * s + c,
                           np.concatenate([product, -product, -T.c[r] * value[e]]))
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
    last = np.concatenate([first[1:], [True]])
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
