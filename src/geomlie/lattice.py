"""ADE type data and the integer bilinear forms attached to it.

The central object is the upper-triangular intersection matrix B of a simple
basis of relative 1-cycles on the Milnor fiber of the corresponding plane
curve singularity, with B[i][j] the intersection of the i-th vanishing cycle
with the j-th basis arc.  Everything else is derived from B over the
integers: the symmetric pairing C = B + B^t, the Seifert form -B^t, the
stabilized pairings and the projective basis B^{-t}.

Roots carry coordinates in the simple arc basis a_1..a_k, and the variation
operator a_i -> D_i = var(a_i) is the identity on them.

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
from typing import Callable, TypeVar

import numpy as np

from ._exact import integer_array, inv_unitriangular

__all__ = [
    "LieType",
    "make_type",
    "as_type",
    "per_type",
    "seifert_matrix",
    "cartan_matrix",
    "pairing",
    "stabilized_pairing_matrix",
    "projective_basis",
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

    @property
    def dimension(self) -> int:
        """Dimension k + |Phi| of the Lie algebra."""
        return self.rank + self.root_count

    def __str__(self) -> str:
        return self.label


def make_type(spec: str) -> LieType:
    """Parse a label like ``A4``, ``d5`` or ``E8`` into a :class:`LieType`."""
    m = re.fullmatch(r"([ADEade])([1-9][0-9]*)", spec.strip())
    if not m:
        raise ValueError(f"malformed type label: {spec!r}")
    family = m.group(1).upper()
    k = int(m.group(2))
    if family == "A":
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

    The builder runs once per type and every later call shares its result,
    so no caller may change it: builders return tuples and read-only
    mappings, and each array result, bare or in a tuple, is made read-only.
    """
    memo: dict[str, _R] = {}

    @functools.wraps(build)
    def cached(t: LieType | str) -> _R:
        t = as_type(t)
        if t.label not in memo:
            out = build(t)
            for part in out if isinstance(out, tuple) else (out,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
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


def pairing(t: LieType | str, a, b) -> int:
    """Symmetric pairing (a, b) = a^t C b of two relative cycles."""
    t = as_type(t)
    a, b = integer_array(a), integer_array(b)
    for v in (a, b):
        if v.shape != (t.rank,):
            raise ValueError(f"expected a length-{t.rank} integer vector, got shape {v.shape}")
    return int(a @ cartan_matrix(t) @ b)


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

    The basis is dual to the simple arcs under B: B b_j = e_j, so the i-th
    vanishing cycle meets b_j exactly when i = j, and the matrix is B^{-t},
    lower unitriangular.  These are the spoke classes whose monodromy orbits
    sweep out the whole root system.
    """
    return inv_unitriangular(seifert_matrix(t)).T


def matrix_payload(t: LieType | str, m) -> dict:
    """JSON payload for an integer matrix: {"type", "matrix"}; ValueError on a non-integer entry."""
    t = as_type(t)
    arr = integer_array(m)
    return {"type": t.label, "matrix": [[int(x) for x in row] for row in arr]}
