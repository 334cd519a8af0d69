"""The Lie algebra built from roots, variation and the Seifert data.

Basis: the k Cartan generators D_1..D_k (variation images of the simple
arcs) followed by one generator g_r per root r in lexicographic order.
Bracket rules:

* [h, h'] = 0 on the Cartan part,
* [D_i, g_b] = (a_i, b) g_b,
* [g_a, g_{-a}] = -var(a),
* [g_a, g_b] = N(a, b) g_{a+b} when a+b is a root, else 0,

with the sign N(a, b) = (-1)^(var(b) . a) read off the intersection matrix.
All structure constants live in one sparse :class:`StructureTable` that
lists every nonzero ordered basis bracket.  The bracket, the antisymmetry,
Jacobi and Killing computations and the export all read that table, so a
corrupted coefficient shows up in every check.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from ._exact import is_nonsingular
from .lattice import LieType, as_type, cartan_matrix, make_type, seifert_matrix
from .rootsys import RootSystem, enumerate_roots

__all__ = [
    "AlgebraElement",
    "LieAlgebra",
    "StructureTable",
    "JacobiReport",
    "MAX_JACOBI_TERMS",
    "term_bounds",
    "n_sign",
    "build",
    "bracket",
    "check_antisymmetry",
    "check_jacobi",
    "killing_form",
    "is_nondegenerate",
    "sl2_triple",
    "slk_model_check",
    "export_structure_constants",
    "load_structure_constants",
    "structure_constants_payload",
]

# ``build`` refuses a type whose Jacobi join could exceed this many terms.
# check_jacobi holds 64 bytes per actual term at its peak (E8: 1.17M terms,
# 75 MB), so the limit keeps it under 640 MB.  The join is never smaller than
# the table, so this bounds the table too.  A31 is the largest A type accepted.
MAX_JACOBI_TERMS = 10_000_000
# check_jacobi reports at most this many violating triples.
MAX_JACOBI_VIOLATIONS = 100_000


def n_sign(t: LieType | str, alpha, beta) -> int:
    """Bracket sign N(alpha, beta) = (-1)^(var(beta) . alpha) for two roots."""
    t = as_type(t)
    B = seifert_matrix(t)
    C = cartan_matrix(t)
    a = np.asarray(alpha, dtype=np.int64)
    b = np.asarray(beta, dtype=np.int64)
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

    def to_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        d = self.to_dict()
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


@dataclass(frozen=True)
class StructureTable:
    """Sparse structure constants: [e_i, e_j] has coefficient c on e_m.

    One row per nonzero (i, j, m), sorted by (i, j, m).  ``key`` lists
    i * dimension + j for each row as Python ints, which ``bisect`` searches
    several times faster per pair than numpy can.
    """

    i: np.ndarray
    j: np.ndarray
    m: np.ndarray
    c: np.ndarray
    key: list[int]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant model of the algebra of one ADE type."""

    lie_type: LieType
    root_system: RootSystem = field(repr=False)
    dimension: int
    table: StructureTable = field(repr=False)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    # -- basis helpers ----------------------------------------------------
    def cartan_gen(self, i: int) -> AlgebraElement:
        """Generator D_i = var(a_i), 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError("Cartan index out of range")
        return AlgebraElement(((i - 1, 1),))

    def root_gen(self, root) -> AlgebraElement:
        r = tuple(int(x) for x in root)
        if r not in self.root_system.index:
            raise ValueError(f"{r} is not a root")
        return AlgebraElement(((self.rank + self.root_system.index[r], 1),))

    def cartan_element(self, coords) -> AlgebraElement:
        """var of a relative cycle: integer combination of the D_i."""
        c = [int(x) for x in coords]
        if len(c) != self.rank:
            raise ValueError("dimension mismatch")
        return AlgebraElement.from_dict({i: c[i] for i in range(self.rank)})

    def basis_labels(self) -> list[str]:
        labels = [f"h{i + 1}" for i in range(self.rank)]
        labels += ["g[" + ",".join(str(x) for x in r) + "]" for r in self.root_system.roots]
        return labels

    # -- bracket ----------------------------------------------------------
    def bracket_basis(self, i: int, j: int) -> AlgebraElement:
        """Bracket of two basis elements by global index."""
        n = self.dimension
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("basis index out of range")
        T = self.table
        q = i * n + j
        lo = bisect_left(T.key, q)
        if lo == len(T.key) or T.key[lo] != q:
            return ZERO
        hi = bisect_right(T.key, q, lo)
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


def _row_index(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Position of each row of Q among the rows of X (lexicographically sorted).

    Rows become byte strings of x + 128; root coordinates lie well inside
    -128..127, so byte order is the lexicographic order of the rows.  Every
    match is then checked in full.
    """
    def keys(A: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(A + 128, dtype=np.uint8).view(f"V{A.shape[1]}").ravel()

    idx = keys(X).searchsorted(keys(Q))
    if not np.array_equal(X[np.minimum(idx, len(X) - 1)], Q):
        raise RuntimeError("a looked-up vector is not a root")
    return idx


def build(t: LieType | str) -> LieAlgebra:
    """Populate the sparse structure-constant table for one type."""
    t = as_type(t)
    table_rows, join_terms = term_bounds(t)
    if join_terms > MAX_JACOBI_TERMS:
        raise ValueError(
            f"{t} is too large: up to {table_rows:,} structure constants and "
            f"{join_terms:,} Jacobi terms, over MAX_JACOBI_TERMS = {MAX_JACOBI_TERMS:,}")
    rs = enumerate_roots(t)
    B = seifert_matrix(t)
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
    nb = k + _row_index(X, -X[na])
    # [g_a, g_b] = N(a, b) g_{a+b}; a + b is a root exactly when (a, b) = -1.
    S = X @ B @ X.T  # S[b, a] = var(b) . a, so (a, b) = S[a, b] + S[b, a]
    ra, rb = np.nonzero(S + S.T == -1)
    rm = k + _row_index(X, X[ra] + X[rb])
    rv = 1 - 2 * (S[rb, ra] % 2)
    i = np.concatenate([hi, hb, na + k, ra + k])
    j = np.concatenate([hb, hi, nb, rb + k])
    m = np.concatenate([hb, hb, nm, rm])
    c = np.concatenate([hv, -hv, nv, rv])
    order = np.argsort((i * n + j) * n + m)
    i, j, m, c = i[order], j[order], m[order], c[order]
    return LieAlgebra(t, rs, n, StructureTable(i, j, m, c, (i * n + j).tolist()))


def bracket(L: LieAlgebra, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the basis bracket table."""
    acc: dict[int, int] = {}
    for i, ci in x.terms:
        for j, cj in y.terms:
            for m, c in L.bracket_basis(i, j).terms:
                acc[m] = acc.get(m, 0) + ci * cj * c
    return AlgebraElement.from_dict(acc)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions in a sorted array where a run of equal values begins."""
    return np.flatnonzero(np.r_[len(ordered) > 0, ordered[1:] != ordered[:-1]])


def _group_sums(key: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the sum of ``values`` over each."""
    order = np.argsort(key)
    key = key[order]
    first = _run_starts(key)
    return key[first], np.add.reduceat(values[order], first)


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with left[a] == right[b], grouped by a."""
    order = np.argsort(right)
    ordered = right[order]
    lo = ordered.searchsorted(left)
    count = ordered.searchsorted(left, "right") - lo
    a = np.repeat(np.arange(len(left)), count)
    b = order[np.arange(len(a)) + np.repeat(lo - np.cumsum(count) + count, count)]
    return a, b


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


def check_jacobi(L: LieAlgebra) -> JacobiReport:
    """Exhaustive Jacobi check, as a join of the structure table with itself.

    Each row [x, y] -> m meets each row [m, z] -> p in one term of
    [[x, y], z] on e_p.  J(x, y, z) is the sum of that term over the three
    rotations of (x, y, z), so terms are summed per (smallest rotation, p);
    a nonzero sum is a violation, reported as its basis-index triple (at most
    MAX_JACOBI_VIOLATIONS of them).
    """
    T, n = L.table, L.dimension
    a, b = _join(T.m, T.i)
    x, y, z, p, coef = T.i[a], T.j[a], T.j[b], T.m[b], T.c[a] * T.c[b]
    del a, b  # MAX_JACOBI_TERMS bounds the peak, so drop join columns early
    # Indices are below n, so base-n keys order the triples lexicographically;
    # n^4 fits in int64 for every dimension that build accepts.
    key = np.minimum(np.minimum((x * n + y) * n + z, (y * n + z) * n + x),
                     (z * n + x) * n + y) * n + p
    del x, y, z, p
    key, total = _group_sums(key, coef)
    checked = len(_run_starts(key // n))
    bad = key[total != 0] // n
    bad = bad[_run_starts(bad)][:MAX_JACOBI_VIOLATIONS]
    violations = [(int(q // (n * n)), int(q // n % n), int(q % n)) for q in bad]
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


def is_nondegenerate(L: LieAlgebra | np.ndarray) -> bool:
    """Exact nondegeneracy of the Killing form (det != 0)."""
    K = killing_form(L) if isinstance(L, LieAlgebra) else np.asarray(L)
    return is_nonsingular(K)


def sl2_triple(L: LieAlgebra, alpha) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """The triple (e, f, h) = (g_a, g_{-a}, var(a)), with its laws verified."""
    r = tuple(int(x) for x in alpha)
    e = L.root_gen(r)
    f = L.root_gen(tuple(-x for x in r))
    h = L.cartan_element(r)
    if bracket(L, h, e) != e.scaled(2):
        raise RuntimeError(f"[h, e] != 2e for alpha={r}")
    if bracket(L, h, f) != f.scaled(-2):
        raise RuntimeError(f"[h, f] != -2f for alpha={r}")
    if bracket(L, e, f) != -h:
        raise RuntimeError(f"[e, f] != -h for alpha={r}")
    return e, f, h


def _slk_image(L: LieAlgebra, idx: int) -> np.ndarray:
    """Image of a basis element in traceless (k+1) x (k+1) matrices."""
    k = L.rank
    m = np.zeros((k + 1, k + 1), dtype=np.int64)
    if idx < k:
        m[idx, idx] = 1
        m[idx + 1, idx + 1] = -1
        return m
    v = np.array(L.root_system.roots[idx - k])
    nz = np.nonzero(v)[0]
    i, j = int(nz[0]), int(nz[-1]) + 1
    if v.sum() > 0:
        m[i, j] = 1      # positive run i..j-1 -> E_{i,j}
    else:
        m[j, i] = -1     # negative run -> -E_{j,i}
    return m


def slk_model_check(k: int) -> bool:
    """Does the traceless-matrix correspondence preserve every basis bracket?

    Maps D_i to E_ii - E_{i+1,i+1}, the root with support [i, j) to E_{i,j}
    and its negative to -E_{j,i}.  Every row of the structure table adds its
    coefficient times the image of its output into the (u, v) cell, and the
    n x n grid of cells must equal the batched commutators of the images;
    the flattened images must also be independent, i.e. their Gram matrix
    nonsingular (an exact mod-p certificate with a Bareiss fallback).
    """
    if not 1 <= k <= 8:
        raise ValueError("k out of range 1..8")
    L = build(make_type(f"A{k}"))
    n = L.dimension
    images = np.array([_slk_image(L, idx) for idx in range(n)])
    flat = images.reshape(n, -1)
    if not is_nonsingular(flat @ flat.T):
        return False
    T = L.table
    expected = np.zeros((n, n, k + 1, k + 1), dtype=np.int64)
    np.add.at(expected, (T.i, T.j), T.c[:, None, None] * images[T.m])
    left, right = images[:, None], images[None, :]
    return np.array_equal(expected, left @ right - right @ left)


def structure_constants_payload(L: LieAlgebra) -> dict:
    """JSON payload with only the i < j half of the table (antisymmetry implied)."""
    T = L.table
    upper = np.flatnonzero(T.i < T.j)
    key = T.i[upper] * L.dimension + T.j[upper]
    bounds = np.r_[_run_starts(key), len(upper)].tolist()
    i, j, m, c = (col[upper].tolist() for col in (T.i, T.j, T.m, T.c))
    brackets = [{"i": i[lo], "j": j[lo], "terms": [[m[r], c[r]] for r in range(lo, hi)]}
                for lo, hi in zip(bounds[:-1], bounds[1:])]
    return {
        "type": L.lie_type.label,
        "dimension": L.dimension,
        "basis": L.basis_labels(),
        "brackets": brackets,
    }


def export_structure_constants(L: LieAlgebra, sink, fmt: str = "json") -> None:
    """Write the structure constants deterministically as JSON or CSV."""
    payload = structure_constants_payload(L)
    own = isinstance(sink, (str, bytes))
    fh = open(sink, "w", encoding="utf-8") if own else sink
    try:
        if fmt == "json":
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        elif fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["i", "j", "terms"])
            for row in payload["brackets"]:
                terms = ";".join(f"{m}:{c}" for m, c in row["terms"])
                writer.writerow([row["i"], row["j"], terms])
        else:
            raise ValueError(f"unknown format {fmt!r}")
    finally:
        if own:
            fh.close()


def load_structure_constants(source) -> dict:
    """Parse a JSON export back into its payload dict."""
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.load(source)
