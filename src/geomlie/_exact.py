"""Exact integer linear algebra helpers.

The Bareiss determinant, the determinant mod p and the unitriangular
inverse work over Python ints, so they are exact regardless of magnitude.
``is_nonsingular`` certifies a square matrix block by block with the
determinant mod p, reading only its nonzero entries: a :class:`SparseSquare`
(the form the Killing form is returned in) directly, a dense matrix through
its nonzeros.  ``short_vectors`` enumerates in int64 after an exact
elimination, and refuses inputs that could overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def integer_array(x) -> np.ndarray:
    """``x`` as an int64 array; ValueError where an entry is not an integer."""
    a = np.asarray(x)
    if a.dtype.kind in "bi":  # bool and signed ints cast exactly
        return a.astype(np.int64)
    with np.errstate(invalid="ignore"):  # NaN, inf and wrapped uint64 are refused below
        out = a.astype(np.int64)
    if not np.array_equal(out, a):
        raise ValueError(f"expected integers, got {x!r}")
    return out


def _ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges [lo[k], lo[k] + count[k]) concatenated, for counts >= 0."""
    out = np.repeat(lo - np.cumsum(count) + count, count)
    out += np.arange(len(out))
    return out


def _bands(count: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive item ranges [s0, s1) of about ``budget`` counted units each.

    A band starts at each item where the running total of ``count`` passes
    a multiple of ``budget``, so an item is never split and one larger than
    the budget is a band alone; items of count 0 at the end join the last
    band, and a zero total gives no band.
    """
    total = np.concatenate([[0], np.cumsum(count)])
    edges = np.unique(np.searchsorted(total, np.arange(0, total[-1], budget),
                                      side="right") - 1).tolist()
    return list(zip(edges, [*edges[1:], len(count)]))


def _rows(m, error: str) -> list[list[int]]:
    """The rows of ``m`` as lists of Python ints, read exactly.

    ValueError(error) where an entry of ``m`` is not a row, as in a 1-D input.
    """
    try:
        rows = [list(row) for row in (m.tolist() if isinstance(m, np.ndarray) else m)]
    except TypeError:
        raise ValueError(error) from None
    return [[int(x) for x in row] for row in rows]


def det_exact(m) -> int:
    """Determinant of an integer matrix via fraction-free Bareiss elimination."""
    a = _rows(m, "matrix must be square")
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for p in range(n - 1):
        if a[p][p] == 0:
            for r in range(p + 1, n):
                if a[r][p] != 0:
                    a[p], a[r] = a[r], a[p]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(p + 1, n):
            for c in range(p + 1, n):
                a[r][c] = (a[r][c] * a[p][p] - a[r][p] * a[p][c]) // prev
            a[r][p] = 0
        prev = a[p][p]
    return sign * a[n - 1][n - 1]


def inv_unitriangular(m) -> np.ndarray:
    """Exact inverse of an upper unitriangular integer matrix.

    Back-substitution over Python ints: row i of the inverse is e_i minus
    m[i][j] times row j, summed over j > i.  Raises ValueError unless ``m`` is
    square and upper triangular with unit diagonal, and OverflowError where
    an entry of the inverse does not fit in int64.
    """
    a = _rows(m, "matrix is not upper unitriangular")
    n = len(a)
    if any(len(row) != n or row[:i + 1] != [0] * i + [1] for i, row in enumerate(a)):
        raise ValueError("matrix is not upper unitriangular")
    inv: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        row = [int(i == j) for j in range(n)]
        for j in range(i + 1, n):
            if a[i][j]:
                row = [x - a[i][j] * y for x, y in zip(row, inv[j])]
        inv[i] = row
    return np.array(inv, dtype=np.int64).reshape(n, n)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """``a`` mod p in int64, exactly.

    Entries that do not cast safely to int64 (object, uint64 or float, as
    numpy reads big ints) are reduced in Python ints.
    """
    try:
        return a.astype(np.int64, casting="safe") % p
    except TypeError:
        return np.array([int(x) % p for x in a.ravel().tolist()],
                        dtype=np.int64).reshape(a.shape)


def det_mod_p(m, p: int) -> int:
    """Determinant of a square integer matrix modulo a prime 2 <= p < 2**31.

    One Gaussian elimination over Python ints: the entries are read exactly,
    whatever their size, and reduced mod p.  Each step takes the first row
    with a nonzero leading entry as the pivot (a swap negates the
    determinant) and clears the column below it, leaving the rows' tails.
    """
    if not 2 <= p < 2 ** 31:
        raise ValueError(f"modulus {p} is not in [2, 2**31)")
    shape = np.shape(m)
    if shape != (len(m),) * 2 and shape != (0,):  # (0,) is the empty matrix
        raise ValueError("matrix must be square")
    a = [[x % p for x in row] for row in _rows(m, "matrix must be square")]
    det = 1
    while a:
        lead = next((r for r, row in enumerate(a) if row[0]), None)
        if lead is None:
            return 0
        if lead:
            a[0], a[lead] = a[lead], a[0]
            det = -det
        head, *rest = a
        det = det * head[0] % p
        inverse = pow(head[0], -1, p)
        a = [[(x - f * y) % p for x, y in zip(row[1:], head[1:])]
             if (f := row[0] * inverse % p) else row[1:] for row in rest]
    return det


_CERT_PRIMES = (1_000_003, 998_244_353, 2_147_483_647)


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Component labels of the rows and the columns of an n x n nonzero pattern.

    Nodes 0..n-1 are the rows and n..2n-1 the columns, joined by the nonzero
    entries (rows[e], cols[e]).  Hook and compress: every root takes the
    smallest root of a neighbour, then pointer jumping flattens the trees,
    until every entry joins two nodes of one label.
    """
    label = np.arange(2 * n)
    u, v = rows, cols + n
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            return label[:n], label[n:]
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while not np.array_equal(label, label[label]):
            label = label[label]


@dataclass(frozen=True)
class SparseSquare:
    """An n x n int64 matrix held as its nonzero entries, read-only.

    Entry e is ``value[e]`` at (``row[e]``, ``col[e]``); the entries are
    sorted by (row, col), one per position, and none is zero.
    ``np.asarray`` gives the dense matrix.  Make one with :meth:`from_keys`.
    """

    n: int
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    @classmethod
    def from_keys(cls, n: int, key: np.ndarray, value: np.ndarray) -> "SparseSquare":
        """The matrix with ``value[e]`` at the flat position ``key[e]`` = row * n + col.

        The keys must be strictly ascending; zero values are dropped.
        """
        key, value = np.asarray(key, dtype=np.int64), integer_array(value)
        if key.shape != value.shape or (key[1:] <= key[:-1]).any():
            raise ValueError("keys must be strictly ascending, one per value")
        nonzero = value != 0
        row, col = np.divmod(key[nonzero], n)
        value = value[nonzero]
        for a in (row, col, value):
            a.setflags(write=False)
        return cls(n, row, col, value)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros((self.n, self.n), dtype=np.int64)
        dense[self.row, self.col] = self.value
        return dense if dtype is None else dense.astype(dtype)


def is_nonsingular(m) -> bool:
    """Exact nonsingularity test of a square matrix, certified block by block.

    ``m`` is a :class:`SparseSquare`, an array or nested lists; the last
    two are read through their nonzero entries, nested lists as Python ints
    (numpy would read ints past int64 beside a negative one as float64).
    The one certificate, :func:`_nonsingular_entries`, works on the entries.
    """
    if isinstance(m, SparseSquare):
        return _nonsingular_entries(m.n, m.row, m.col, m.value)
    a = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    if a.shape != (len(a),) * 2 and a.shape != (0,):  # (0,) is the empty matrix
        raise ValueError("matrix must be square")
    row, col = np.nonzero(a != 0)
    return _nonsingular_entries(len(a), row, col, a[row, col])


def _nonsingular_entries(n: int, row: np.ndarray, col: np.ndarray, value: np.ndarray) -> bool:
    """Whether the n x n matrix with ``value[e]`` at (row[e], col[e]) is nonsingular.

    The entries sit at distinct positions; their values may be Python ints
    of any size (an object array).  The connected components of the graph
    joining row r to column c where an entry sits are the diagonal blocks of
    the matrix up to a row and a column permutation, so its determinant is
    +-(product of the block determinants).  A component with unequal row
    and column counts (a zero row, say) makes it singular.  Each square
    block is certified by a nonzero determinant mod one of the
    ``_CERT_PRIMES``: the 1 x 1 and 2 x 2 blocks in one vectorized step,
    larger ones by one elimination each over Python ints (:func:`det_mod_p`);
    the widest the package meets are the Cartan blocks of a Killing form, up
    to 31 wide.  Only when some block is certified by no prime is the dense
    matrix built, once, as Python ints, for the Bareiss determinant.
    """
    if n == 0:
        return True
    row_label, col_label = _components(row, col, n)
    size = np.bincount(row_label, minlength=2 * n)
    if not np.array_equal(size, np.bincount(col_label, minlength=2 * n)):
        return False
    # Sorted by label, the rows and the columns of each block sit at the same
    # positions; a block's place is the position of its first row.
    ro = np.argsort(row_label, kind="stable")
    co = np.argsort(col_label, kind="stable")
    label = row_label[ro]
    first = np.flatnonzero(np.concatenate([[True], label[1:] != label[:-1]]))
    wide = size[label[first]]  # the width of the block placed at first[b]
    place = np.zeros(2 * n, dtype=np.int64)
    place[label[first]] = first
    at_row, at_col = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    at_row[ro] = at_col[co] = np.arange(n)
    block = row_label[row]
    width, lo = size[block], place[block]
    r, c = at_row[row] - lo, at_col[col] - lo  # an entry's place in its block
    # The blocks up to 2 wide as [[a, b], [c, d]] mod each prime, a 1 x 1 one with d = 1.
    small = np.flatnonzero(width <= 2)
    e = np.zeros((n, 4, len(_CERT_PRIMES)), dtype=np.int64)
    e[first[wide == 1], 3] = 1
    e[lo[small], 2 * r[small] + c[small]] = np.stack(
        [_residues(value[small], p) for p in _CERT_PRIMES], axis=1)
    s = e[first[wide <= 2]]
    # Residues below 2**31 keep each product below 2**62.
    det = (s[:, 0] * s[:, 3] - s[:, 1] * s[:, 2]) % _CERT_PRIMES
    if det.any(axis=1).all():
        big = np.flatnonzero(width >= 3)
        big = big[np.argsort(lo[big], kind="stable")]
        cut = np.flatnonzero(np.diff(lo[big], prepend=-1)).tolist()  # each block's first entry
        for s0, s1 in zip(cut, [*cut[1:], len(big)]):
            part = big[s0:s1]
            w = int(width[part[0]])
            b = np.zeros((w, w), dtype=value.dtype)
            b[r[part], c[part]] = value[part]
            if not any(det_mod_p(b, p) for p in _CERT_PRIMES):
                break
        else:
            return True
    dense = np.zeros((n, n), dtype=object)
    dense[row, col] = value
    return det_exact(dense) != 0


# Bound on every int64 intermediate of short_vectors; squares of isqrt
# results just above it still fit in 2**63.
_INT64_BUDGET = 2 ** 62


def short_vectors(gram, norm: int) -> list[tuple[int, ...]]:
    """All integer vectors v with v^t G v == norm, for positive definite G.

    Integer Fincke-Pohst enumeration (Fincke-Pohst, Math. Comp. 44, 1985;
    Cohen, Alg. 2.7.5).  Fraction-free (Bareiss) elimination of G gives the
    leading minors delta_j = det G[:j, :j] and the integer matrices
    M_j = delta_j S_j, S_j the Schur complement of G[:j, :j].  A tail
    w = (v_j, ..., v_{n-1}) extends to a real point of v^t G v <= norm iff
    its slack s_j = delta_j norm - w^t M_j w is >= 0.  With
    t = delta_{j+1} v_j + M_j[0, 1:] . (v_{j+1}, ...), one step obeys
    delta_{j+1} s_j = delta_j s_{j+1} - t^2, so v_j runs exactly over
    |t| <= isqrt(delta_j s_{j+1}), and s_0 = norm - v^t G v.  All tails of a
    level are extended at once in int64; every membership test and range
    endpoint is an integer computation.  Independent of any reflection-based
    generation: only positive definiteness is used.

    Raises ValueError for a non-square, non-symmetric or non-positive-definite
    G (decided by the Bareiss pivots, Sylvester's criterion), and when an
    intermediate could pass 2**62.
    """
    G = _rows(gram, "matrix must be square")
    n = len(G)
    if any(len(row) != n for row in G):
        raise ValueError("matrix must be square")
    if any(G[i][j] != G[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    # After Bareiss step j the block A[j:, j:] is M_j; its first row gives t.
    A = [row[:] for row in G]
    delta = [1]
    pivot_rows = []
    for j in range(n):
        if A[j][j] <= 0:
            raise ValueError("matrix is not positive definite")
        pivot_rows.append(A[j][j + 1:])
        for r in range(j + 1, n):
            for c in range(j + 1, n):
                A[r][c] = (A[j][j] * A[r][c] - A[r][j] * A[j][c]) // delta[j]
        delta.append(A[j][j])
    if norm < 0:
        return []
    # |v_i| <= sqrt(norm (G^-1)_ii) on the ellipsoid, and Hadamard's inequality
    # bounds det(G) (G^-1)_ii, a principal minor, by the other diagonal entries.
    diag = [G[i][i] for i in range(n)]
    reach = [math.isqrt(norm * math.prod(diag[:i] + diag[i + 1:]) // delta[n]) + 1
             for i in range(n)]
    need = 0
    for j in range(n):
        d = delta[j] * delta[j + 1] * norm
        b = sum(abs(e) * reach[i] for i, e in enumerate(pivot_rows[j], j + 1))
        need = max(need, d, math.isqrt(d) + b + delta[j + 1])
    if need > _INT64_BUDGET:
        raise ValueError(f"short_vectors intermediates may reach {need} > 2**62")

    tails = np.zeros((1, 0), dtype=np.int64)
    slack = np.array([delta[n] * norm], dtype=np.int64)
    for j in range(n - 1, -1, -1):
        a = delta[j + 1]
        b = tails @ np.array(pivot_rows[j], dtype=np.int64)
        disc = delta[j] * slack
        # Float seed for isqrt(disc); disc <= 2**62 keeps it within one of the
        # true value, and the two integer corrections make it exact.
        r = np.floor(np.sqrt(disc.astype(np.float64))).astype(np.int64)
        r -= r * r > disc
        r += (r + 1) * (r + 1) <= disc
        low = -((r + b) // a)
        count = np.maximum((r - b) // a - low + 1, 0)
        parent = np.repeat(np.arange(len(tails)), count)
        x = _ranges(low, count)
        t = a * x + b[parent]
        slack = (disc[parent] - t * t) // a
        tails = np.column_stack((x, tails[parent]))
    return sorted(map(tuple, tails[slack == 0].tolist()))
