"""Exact integer linear algebra helpers.

The Bareiss determinant, the determinant mod p and the unitriangular
inverse work over Python ints, so they are exact regardless of magnitude;
``is_nonsingular`` certifies a matrix block by block with the determinant
mod p.  ``short_vectors`` enumerates in int64 after an exact elimination,
and refuses inputs that could overflow.
"""

from __future__ import annotations

import math

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


def _rows(m) -> list[list[int]]:
    """The rows of ``m`` as lists of Python ints, read exactly."""
    return [[int(x) for x in row] for row in (m.tolist() if isinstance(m, np.ndarray) else m)]


def det_exact(m) -> int:
    """Determinant of an integer matrix via fraction-free Bareiss elimination."""
    a = _rows(m)
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
    a = _rows(m)
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
    a = [[x % p for x in row] for row in _rows(m)]
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


def is_nonsingular(m) -> bool:
    """Exact nonsingularity test, certified block by block.

    The connected components of the graph joining row r to column c where
    m[r, c] != 0 are the diagonal blocks of m up to a row and a column
    permutation, so det m = +-(product of the block determinants).  A
    component with unequal row and column counts (a zero row, say) makes m
    singular.  Each square block is certified by a nonzero determinant mod
    one of the ``_CERT_PRIMES``: the 1 x 1 and 2 x 2 blocks in one vectorized
    step, larger ones by one elimination each over Python ints
    (:func:`det_mod_p`); the widest the package meets are the Cartan blocks
    of a Killing matrix, up to 31 wide.  Only when some block is
    certified by no prime does the Bareiss determinant decide, once, on the
    whole matrix.  Nested lists are read as Python ints (an object array):
    numpy would read ints past int64 beside a negative one as float64.
    """
    a = m if isinstance(m, np.ndarray) else np.array(m, dtype=object)
    if a.shape != (len(a),) * 2 and a.shape != (0,):  # (0,) is the empty matrix
        raise ValueError("matrix must be square")
    n = len(a)
    if n == 0:
        return True
    row_label, col_label = _components(*np.nonzero(a != 0), n)
    size = np.bincount(row_label, minlength=2 * n)
    if not np.array_equal(size, np.bincount(col_label, minlength=2 * n)):
        return False
    # Sorted by label, the rows and the columns of each block sit at the same positions.
    ro = np.argsort(row_label, kind="stable")
    co = np.argsort(col_label, kind="stable")
    label = row_label[ro]
    width = size[label]
    one = np.flatnonzero(width == 1)
    two = np.flatnonzero(width == 2)[::2]
    r0, r1, c0, c1 = ro[two], ro[two + 1], co[two], co[two + 1]
    entries = np.concatenate([a[ro[one], co[one]], a[r0, c0], a[r1, c1], a[r0, c1], a[r1, c0]])
    # One column per prime; residues below 2**31 keep each product below 2**62.
    e = np.stack([_residues(entries, p) for p in _CERT_PRIMES], axis=1)
    s, t = len(one), len(two)
    det = np.concatenate([e[:s], (e[s:s + t] * e[s + t:s + 2 * t]
                                  - e[s + 2 * t:s + 3 * t] * e[s + 3 * t:]) % _CERT_PRIMES])
    first = np.flatnonzero(np.concatenate([[True], label[1:] != label[:-1]]))
    first = first[width[first] >= 3]
    blocks = (a[np.ix_(ro[lo:lo + w], co[lo:lo + w])]
              for lo, w in zip(first.tolist(), width[first].tolist()))
    if det.any(axis=1).all() and all(any(det_mod_p(b, p) for p in _CERT_PRIMES) for b in blocks):
        return True
    return det_exact(m) != 0


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
    G = _rows(gram)
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
