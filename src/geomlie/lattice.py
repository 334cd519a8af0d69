"""ADE type data and the integer bilinear forms attached to it.

The central object is the upper-triangular intersection matrix B of a simple
basis of relative 1-cycles on the Milnor fiber of the corresponding plane
curve singularity, with B[i][j] the intersection of the i-th vanishing cycle
with the j-th basis arc.  Everything else is derived from B over the
integers: the symmetric pairing C = B + B^t, the Seifert form -B^t, the
skew intersection form B^t - B, and the stabilized pairings.

Two coordinate systems are used throughout the package.  Relative cycles
carry coordinates in the simple arc basis a_1..a_k; absolute cycles carry
coordinates in the image basis D_i = var(a_i).  The variation operator is
the identity on coordinates and only swaps the basis tag.

This module also owns the package's per-type conventions: :func:`as_type` is
the one normalizer of a type argument (a :class:`LieType` or a label), and
:func:`per_type` is the one memo of per-type results, keyed by the label,
whose array results come back read-only.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from ._exact import det_exact

__all__ = [
    "LieType",
    "RelativeCycle",
    "AbsoluteCycle",
    "make_type",
    "as_type",
    "per_type",
    "seifert_matrix",
    "cartan_matrix",
    "pairing",
    "mixed_intersection",
    "intersection_abs",
    "seifert_form",
    "variation",
    "variation_inverse",
    "stabilized_pairing_matrix",
    "projective_basis",
    "is_distinguished",
    "matrix_payload",
]

_E_DATA = {6: (12, 72), 7: (18, 126), 8: (30, 240)}

# Off-diagonal -1 positions of the upper-triangular B for the E types,
# matching the bases the wheel construction produces.
_E_SUPER = {
    6: ((0, 1), (1, 4), (2, 3), (3, 4), (4, 5)),
    7: ((0, 4), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)),
    8: ((0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)),
}


@dataclass(frozen=True)
class LieType:
    """An ADE type together with its derived constants."""

    family: str
    rank: int
    coxeter_number: int
    root_count: int

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class RelativeCycle:
    """Integer coordinates in the simple arc basis of H1(M, dM)."""

    coords: tuple[int, ...]


@dataclass(frozen=True)
class AbsoluteCycle:
    """Integer coordinates in the vanishing-cycle basis of H1(M)."""

    coords: tuple[int, ...]


def make_type(spec: str) -> LieType:
    """Parse a label like ``A4``, ``d5`` or ``E8`` into a :class:`LieType`."""
    m = re.fullmatch(r"([ADEade])(\d+)", spec.strip())
    if not m:
        raise ValueError(f"malformed type label: {spec!r}")
    family = m.group(1).upper()
    k = int(m.group(2))
    if family == "A":
        if k < 1:
            raise ValueError("A requires rank >= 1")
        return LieType("A", k, k + 1, k * (k + 1))
    if family == "D":
        if k < 3:
            raise ValueError("D requires rank >= 3")
        if k == 3:
            warnings.warn("D3 coincides with A3; accepted at the rank floor", stacklevel=2)
        return LieType("D", k, 2 * (k - 1), 2 * k * (k - 1))
    if k not in _E_DATA:
        raise ValueError("E requires rank 6, 7 or 8")
    h, nroots = _E_DATA[k]
    return LieType("E", k, h, nroots)


def as_type(t: LieType | str) -> LieType:
    """``t`` itself if it is a :class:`LieType`, else :func:`make_type` of the label."""
    return t if isinstance(t, LieType) else make_type(t)


_R = TypeVar("_R")


def per_type(build: Callable[[LieType], _R]) -> Callable[[LieType | str], _R]:
    """Memoize a one-argument builder of per-type data by the type's label.

    The builder runs once per type; later calls return the same object.  An
    array result is made read-only first, so no caller can change what the
    others see.
    """
    memo: dict[str, _R] = {}

    @functools.wraps(build)
    def cached(t: LieType | str) -> _R:
        t = as_type(t)
        if t.label not in memo:
            out = build(t)
            if isinstance(out, np.ndarray):
                out.setflags(write=False)
            memo[t.label] = out
        return memo[t.label]

    return cached


@per_type
def seifert_matrix(t: LieType | str) -> np.ndarray:
    """The upper-triangular intersection matrix B of the simple arc basis."""
    k = t.rank
    B = np.eye(k, dtype=np.int64)
    if t.family == "A":
        for i in range(k - 1):
            B[i, i + 1] = -1
    elif t.family == "D":
        B[0, 2] = -1
        for i in range(1, k - 1):
            B[i, i + 1] = -1
    else:
        for i, j in _E_SUPER[k]:
            B[i, j] = -1
    return B


@per_type
def cartan_matrix(t: LieType | str) -> np.ndarray:
    """The symmetric pairing matrix C = B + B^t (a standard ADE Cartan matrix)."""
    B = seifert_matrix(t)
    return B + B.T


def _coords(v, k: int) -> np.ndarray:
    if isinstance(v, (RelativeCycle, AbsoluteCycle)):
        v = v.coords
    arr = np.asarray(v, dtype=np.int64)
    if arr.shape != (k,):
        raise ValueError(f"expected a length-{k} integer vector, got shape {arr.shape}")
    return arr


def pairing(t: LieType | str, a, b) -> int:
    """Symmetric pairing (a, b) = a^t C b of two relative cycles."""
    t = as_type(t)
    C = cartan_matrix(t)
    return int(_coords(a, t.rank) @ C @ _coords(b, t.rank))


def mixed_intersection(t: LieType | str, a, b) -> int:
    """Intersection a . b of an absolute cycle a with a relative cycle b (a^t B b)."""
    t = as_type(t)
    B = seifert_matrix(t)
    return int(_coords(a, t.rank) @ B @ _coords(b, t.rank))


def intersection_abs(t: LieType | str, a, b) -> int:
    """Skew intersection a . b of two absolute cycles (a^t (B^t - B) b)."""
    t = as_type(t)
    B = seifert_matrix(t)
    return int(_coords(a, t.rank) @ (B.T - B) @ _coords(b, t.rank))


def seifert_form(t: LieType | str, a, b) -> int:
    """Seifert form L(a, b) = a^t L b with the convention L = -B^t."""
    t = as_type(t)
    L = -seifert_matrix(t).T
    return int(_coords(a, t.rank) @ L @ _coords(b, t.rank))


def variation(a: RelativeCycle | Sequence[int]) -> AbsoluteCycle:
    """Variation image of a relative cycle: identity on coordinates."""
    coords = a.coords if isinstance(a, RelativeCycle) else tuple(int(x) for x in a)
    return AbsoluteCycle(coords)


def variation_inverse(a: AbsoluteCycle | Sequence[int]) -> RelativeCycle:
    """Inverse variation: identity on coordinates, back to the arc basis."""
    coords = a.coords if isinstance(a, AbsoluteCycle) else tuple(int(x) for x in a)
    return RelativeCycle(coords)


def stabilized_pairing_matrix(t: LieType | str, n: int) -> np.ndarray:
    """Pairing matrix of the n-variable suspension of the curve singularity.

    The Seifert form of a suspension picks up the sign (-1)^(m+1) in the step
    from m to m+1 variables: (-1)^m from the tensor-factor count in the
    Thom-Sebastiani formula for Seifert forms, times the value -1 of the
    one-variable form on its generator.  The overall (-1)^(n(n+1)/2)
    symmetrization sign then makes the pairing independent of n.
    """
    t = as_type(t)
    if n < 2:
        raise ValueError("stabilized pairing requires n >= 2")
    L = -seifert_matrix(t).T
    for m in range(2, n):
        L = ((-1) ** (m + 1)) * L
    sign = (-1) ** (n * (n + 1) // 2)
    return sign * (L.T + L)


@per_type
def projective_basis(t: LieType | str) -> np.ndarray:
    """Rows are the projective basis roots b_1..b_k in simple coordinates.

    These are the spoke classes whose monodromy orbits sweep out the whole
    root system; the matrix is unimodular and every row pairs to 2 with
    itself.
    """
    k = t.rank
    Q = np.zeros((k, k), dtype=np.int64)
    if t.family == "A":
        for j in range(k):
            Q[j, : j + 1] = 1
    elif t.family == "D":
        Q[0, 0] = 1
        Q[1, 1] = 1
        for j in range(2, k):
            Q[j, : j + 1] = 1
    elif k == 6:
        rows = [(1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                (0, 0, 1, 1, 0, 0), (1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1)]
        Q = np.array(rows, dtype=np.int64)
    elif k == 7:
        rows = [(1, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0),
                (0, 1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 1, 0),
                (1, 1, 1, 1, 1, 1, 1)]
        Q = np.array(rows, dtype=np.int64)
    else:
        rows = [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0),
                (0, 1, 1, 0, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0, 0),
                (1, 1, 1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1, 0, 0),
                (1, 1, 1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1, 1, 1)]
        Q = np.array(rows, dtype=np.int64)
    assert abs(det_exact(Q)) == 1
    return Q


def is_distinguished(m, upper: bool = True) -> bool:
    """Triangularity criterion for a distinguished collection.

    True iff the matrix is triangular (upper by default, lower with
    ``upper=False``) with every diagonal entry equal to 1.
    """
    arr = np.asarray(m, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.diagonal(arr) == 1):
        return False
    lower_part = np.tril(arr, -1)
    upper_part = np.triu(arr, 1)
    return not np.any(lower_part) if upper else not np.any(upper_part)


def matrix_payload(t: LieType | str, m) -> dict:
    """JSON payload for an integer matrix: {"type", "matrix"}."""
    t = as_type(t)
    arr = np.asarray(m, dtype=np.int64)
    return {"type": t.label, "matrix": [[int(x) for x in row] for row in arr]}
