"""Exact integer linear algebra helpers.

Everything here works over Python ints or Fractions so results are exact
regardless of magnitude; numpy arrays are accepted and converted.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def _rows(m) -> list[list[int]]:
    return [[int(x) for x in row] for row in m]


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


def inv_unimodular(m) -> np.ndarray:
    """Exact inverse of a unimodular integer matrix (det = ±1)."""
    a = _rows(m)
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return np.array([[int(x) for x in row] for row in inv], dtype=np.int64)


def det_mod_p(m, p: int) -> int:
    """Determinant of an integer matrix modulo a prime p."""
    a = [[int(x) % p for x in row] for row in m]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = (-det) % p
        inv = pow(a[col][col], p - 2, p)
        det = (det * a[col][col]) % p
        for r in range(col + 1, n):
            if a[r][col]:
                f = (a[r][col] * inv) % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det


_CERT_PRIMES = (1_000_003, 998_244_353, 2_147_483_647)


def is_nonsingular(m) -> bool:
    """Exact nonsingularity test: mod-p certificate, Bareiss fallback."""
    for p in _CERT_PRIMES:
        if det_mod_p(m, p) != 0:
            return True
    return det_exact(m) != 0


def short_vectors(gram, norm: int) -> list[tuple[int, ...]]:
    """All integer vectors v with v^t G v == norm, for positive definite G.

    Complete enumeration by exact rational LDL^t decomposition and
    branch-and-bound over the last-to-first coordinates.  Independent of any
    reflection-based generation: only positive definiteness is used.
    """
    G = [[Fraction(int(x)) for x in row] for row in gram]
    n = len(G)
    # LDL^t: G = L D L^t with unit lower-triangular L and positive diagonal D.
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        D[j] = G[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if D[j] <= 0:
            raise ValueError("matrix is not positive definite")
        for i in range(j + 1, n):
            L[i][j] = (G[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    # v^t G v = sum_j D[j] * (v_j + sum_{i>j} L[i][j] v_i)^2; recurse j = n-1..0.
    target = Fraction(norm)
    out: list[tuple[int, ...]] = []
    v = [0] * n

    def descend(j: int, remaining: Fraction) -> None:
        if j < 0:
            if remaining == 0:
                out.append(tuple(v))
            return
        shift = sum(L[i][j] * v[i] for i in range(j + 1, n))
        # Integer v_j with D[j] * (v_j + shift)^2 <= remaining; the radius
        # overestimate (isqrt(pq) + 1)/q >= sqrt(p/q) keeps the range complete,
        # and each candidate is re-tested exactly below.
        bound2 = remaining / D[j]
        radius = Fraction(math.isqrt(bound2.numerator * bound2.denominator) + 1,
                          bound2.denominator)
        low = math.ceil(-shift - radius)
        high = math.floor(-shift + radius)
        for x in range(low, high + 1):
            q = D[j] * (x + shift) * (x + shift)
            if q <= remaining:
                v[j] = x
                descend(j - 1, remaining - q)
        v[j] = 0

    descend(n - 1, target)
    return sorted(out)
