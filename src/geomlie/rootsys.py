"""Geometric root systems and the operators acting on them.

Roots are the integer vectors of squared length 2 for the pairing C = B+B^t,
generated by closing the simple basis under its own reflections.  The
monodromy operator is -c for the Coxeter element c (equivalently B^{-1}B^t),
and c itself plays the role of the monodromy composed with an orientation
reversal.  Orbit decompositions under either operator reproduce the
singularity-side orbit tables, and graph foldings project the pairing onto
automorphism orbits to produce the non-simply-laced Cartan matrices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._exact import inv_unimodular
from .lattice import (LieType, as_type, cartan_matrix, make_type, per_type,
                      projective_basis, seifert_matrix)

__all__ = [
    "Root",
    "RootSystem",
    "OrbitDecomposition",
    "FoldingSpec",
    "enumerate_roots",
    "coxeter_matrix",
    "monodromy_matrix",
    "matrix_order",
    "sT_matrices",
    "verify_sT_identity",
    "orbit_decomposition",
    "fold",
    "classical_folding",
    "CLASSICAL_FOLDINGS",
    "rootsystem_payload",
]

Root = tuple[int, ...]


@dataclass(frozen=True)
class RootSystem:
    """The finite set of roots of one type, in lexicographic order."""

    lie_type: LieType
    roots: tuple[Root, ...]
    index: dict[Root, int] = field(repr=False)
    coords: np.ndarray = field(repr=False, compare=False)  # the roots as read-only int64 rows

    def __len__(self) -> int:
        return len(self.roots)

    def locate(self, vectors) -> np.ndarray:
        """Index of each row of ``vectors`` among the roots.

        Rows become byte strings of x + 128; root coordinates lie well inside
        -128..127, so byte order is the lexicographic order of the roots.
        Every match is then checked in full, so a row that is not a root
        raises RuntimeError even where its bytes wrap onto a root's.
        """
        X, Q = self.coords, np.asarray(vectors, dtype=np.int64)

        def keys(A: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(A + 128, dtype=np.uint8).view(f"V{A.shape[1]}").ravel()

        idx = keys(X).searchsorted(keys(Q))
        found = X[np.minimum(idx, len(X) - 1)]
        if not np.array_equal(found, Q):
            miss = Q[np.any(found != Q, axis=1)][0]
            raise RuntimeError(f"{self.lie_type}: {tuple(miss.tolist())} is not a root")
        return idx


@per_type
def enumerate_roots(t: LieType | str) -> RootSystem:
    """All vectors with (v, v) = 2, by reflection closure of the simple basis."""
    C = cartan_matrix(t)
    k = t.rank
    eye = np.eye(k, dtype=np.int64)
    seen: set[Root] = set()
    frontier: list[Root] = []
    for i in range(k):
        for v in (tuple(eye[i]), tuple(-eye[i])):
            root = tuple(int(x) for x in v)
            seen.add(root)
            frontier.append(root)
    while frontier:
        v = np.array(frontier.pop(), dtype=np.int64)
        images = v[None, :] - (C @ v)[:, None] * eye
        for row in images:
            w = tuple(int(x) for x in row)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    roots = tuple(sorted(seen))
    if len(roots) != t.root_count:
        raise RuntimeError(f"{t}: expected {t.root_count} roots, found {len(roots)}")
    for r in roots:
        arr = np.array(r)
        if not (np.all(arr >= 0) or np.all(arr <= 0)):
            raise RuntimeError(f"{t}: root {r} has mixed signs")
    coords = np.array(roots, dtype=np.int64)
    coords.setflags(write=False)
    return RootSystem(t, roots, {r: i for i, r in enumerate(roots)}, coords)


def _reflection_matrix(C: np.ndarray, i: int) -> np.ndarray:
    k = C.shape[0]
    R = np.eye(k, dtype=np.int64)
    R[i, :] -= C[i, :]
    return R


@per_type
def coxeter_matrix(t: LieType | str) -> np.ndarray:
    """Matrix of c = s_1 ... s_k in the simple basis (columns are images)."""
    C = cartan_matrix(t)
    M = np.eye(t.rank, dtype=np.int64)
    for i in range(t.rank):
        M = M @ _reflection_matrix(C, i)
    return M


def monodromy_matrix(t: LieType | str, basis: str = "simple") -> np.ndarray:
    """Monodromy operator -c, in the simple or the projective basis."""
    t = as_type(t)
    M = -coxeter_matrix(t)
    if basis == "simple":
        return M
    if basis == "projective":
        QT = projective_basis(t).T
        return inv_unimodular(QT) @ M @ QT
    raise ValueError(f"unknown basis {basis!r}")


# matrix_order gives up past this many powers; the largest order in rank <= 8
# is the Coxeter number 30 of E8.
MAX_MATRIX_ORDER = 256


def matrix_order(m) -> int:
    """Smallest positive n with m^n = I, up to MAX_MATRIX_ORDER."""
    arr = np.asarray(m, dtype=np.int64)
    eye = np.eye(arr.shape[0], dtype=np.int64)
    power = arr.copy()
    for n in range(1, MAX_MATRIX_ORDER + 1):
        if np.array_equal(power, eye):
            return n
        power = power @ arr
    raise RuntimeError(f"matrix order exceeds {MAX_MATRIX_ORDER}")


def sT_matrices(t: LieType | str, lam: int) -> tuple[np.ndarray, np.ndarray]:
    """Reflection matrix S_lam and Picard-Lefschetz matrix T_lam (lam is 1-based).

    S_lam = I minus the lam-th row of B + B^t inserted at row lam;
    T_lam = I minus the lam-th row of B - B^t inserted at row lam.
    """
    t = as_type(t)
    if not 1 <= lam <= t.rank:
        raise ValueError(f"index {lam} out of range 1..{t.rank}")
    B = seifert_matrix(t)
    i = lam - 1
    S = np.eye(t.rank, dtype=np.int64)
    T = np.eye(t.rank, dtype=np.int64)
    S[i, :] -= cartan_matrix(t)[i, :]
    T[i, :] -= (B - B.T)[i, :]
    return S, T


def verify_sT_identity(t: LieType | str) -> bool:
    """Check S_1 ... S_k == -(T_1 ... T_k) exactly."""
    t = as_type(t)
    S = np.eye(t.rank, dtype=np.int64)
    T = np.eye(t.rank, dtype=np.int64)
    for lam in range(1, t.rank + 1):
        Sl, Tl = sT_matrices(t, lam)
        S = S @ Sl
        T = T @ Tl
    return np.array_equal(S, -T)


OPERATORS = ("monodromy", "coxeter_bar")


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of the root system under an operator's iteration."""

    lie_type: LieType
    operator: str
    operator_order: int
    orbits: tuple[tuple[int, ...], ...]
    root_system: RootSystem = field(repr=False)

    @property
    def is_free(self) -> bool:
        return all(len(o) == self.operator_order for o in self.orbits)

    def not_free_message(self) -> str:
        sizes = sorted({len(o) for o in self.orbits})
        return (f"{self.lie_type}: {self.operator} action is not free "
                f"(orbit sizes {sizes}, order {self.operator_order})")

    def to_json(self) -> dict:
        return {
            "operator": self.operator,
            "order": self.operator_order,
            "orbits": [list(o) for o in self.orbits],
        }


def _cycles(step) -> list[tuple[int, ...]]:
    """Cycles of the permutation i -> step[i], by smallest member, each traversed from it."""
    seen = [False] * len(step)
    cycles = []
    for start in range(len(step)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cur = step[start]
        while cur != start:
            cycle.append(cur)
            seen[cur] = True
            cur = step[cur]
        cycles.append(tuple(cycle))
    return cycles


def orbit_decomposition(t: LieType | str, operator: str = "monodromy") -> OrbitDecomposition:
    """Decompose the root system into orbits of the chosen operator.

    ``operator`` is ``"monodromy"`` for -c or ``"coxeter_bar"`` for c.  The
    action need not be free (see ``is_free``): the only non-free case in
    rank <= 8 is the A5 monodromy, whose three diameter classes and their
    negatives close up after 3 of the 6 steps.
    """
    t = as_type(t)
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator {operator!r}")
    rs = enumerate_roots(t)
    M = monodromy_matrix(t) if operator == "monodromy" else coxeter_matrix(t)
    cycles = _cycles(rs.locate(rs.coords @ M.T).tolist())  # root i -> M @ roots[i]
    # The roots span the lattice, so the order of M is that of its permutation.
    order = math.lcm(*map(len, cycles))
    return OrbitDecomposition(t, operator, order, tuple(cycles), rs)


@dataclass(frozen=True)
class FoldingSpec:
    """A graph automorphism of the simple basis and its target label.

    ``permutation`` maps 1-based node i to permutation[i-1]; its cycles are
    the folded orbits.  Non-involutive automorphisms are allowed (D4 -> G2
    uses a 3-cycle).
    """

    source: LieType
    permutation: tuple[int, ...]
    target_name: str = ""


def fold(spec: FoldingSpec) -> np.ndarray:
    """Fold the Cartan matrix along the automorphism orbits.

    The folded entry on orbit pair (A, B) is the sum of C[a][b0] over a in A
    for a fixed b0 in B; the two folding axioms (orbit members pairwise
    orthogonal, sum independent of the b0 chosen) are validated and a
    violation raises ValueError.
    """
    t = spec.source
    k = t.rank
    perm = spec.permutation
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("permutation must be a bijection of 1..k")
    C = cartan_matrix(t)
    for i in range(k):
        for j in range(k):
            if C[perm[i] - 1, perm[j] - 1] != C[i, j]:
                raise ValueError("permutation does not preserve the pairing")
    orbits = sorted(tuple(sorted(c)) for c in _cycles([p - 1 for p in perm]))
    for orb in orbits:
        for a in orb:
            for b in orb:
                if a != b and C[a, b] != 0:
                    raise ValueError(
                        f"folding axiom violated: nodes {a + 1},{b + 1} in one orbit are adjacent")
    n = len(orbits)
    out = np.zeros((n, n), dtype=np.int64)
    for A in range(n):
        for Bi in range(n):
            sums = {int(sum(C[a, b] for a in orbits[A])) for b in orbits[Bi]}
            if len(sums) != 1:
                raise ValueError("folded entry depends on the representative; not a folding")
            out[A, Bi] = sums.pop()
    return out


def classical_folding(name: str) -> FoldingSpec:
    """Named folding spec: 'D5:B4', 'A5:C3', 'E6:F4' or 'D4:G2'."""
    name = name.upper().replace(" ", "")
    src_label, _, dst_label = name.partition(":")
    if not dst_label:
        raise ValueError("folding spec must look like 'E6:F4'")
    src = make_type(src_label)
    target = re.fullmatch(r"([A-Z])([1-9][0-9]*)", dst_label)
    fam, rank = (target[1], int(target[2])) if target else ("", 0)
    if fam == "B" and src.family == "D" and src.rank == rank + 1:
        perm = [2, 1] + list(range(3, src.rank + 1))
    elif fam == "C" and src.family == "A" and src.rank == 2 * rank - 1:
        perm = [src.rank + 1 - i for i in range(1, src.rank + 1)]
    elif dst_label == "F4" and src.label == "E6":
        perm = [3, 4, 1, 2, 5, 6]
    elif dst_label == "G2" and src.label == "D4":
        perm = [2, 4, 3, 1]
    else:
        raise ValueError(f"unsupported classical folding {name!r}")
    return FoldingSpec(src, tuple(perm), dst_label)


CLASSICAL_FOLDINGS = tuple(
    ["D%d:B%d" % (k + 1, k) for k in range(3, 8)]
    + ["A%d:C%d" % (2 * k - 1, k) for k in (2, 3, 4)]
    + ["E6:F4", "D4:G2"]
)


def rootsystem_payload(rs: RootSystem) -> dict:
    """JSON payload: {"type", "cartan", "roots"}."""
    C = cartan_matrix(rs.lie_type)
    return {
        "type": rs.lie_type.label,
        "cartan": [[int(x) for x in row] for row in C],
        "roots": [list(r) for r in rs.roots],
    }
