"""Geometric root systems and the operators acting on them.

Roots are the integer vectors of squared length 2 for the pairing C = B+B^t,
generated by closing the simple basis under its own reflections.  The
variation is the identity on the simple arcs, so the monodromy is
B^{-1}B^t = -c, where the Coxeter element c is the monodromy composed with an
orientation reversal.  Orbit decompositions under either operator reproduce
the singularity-side orbit tables, and graph foldings project the pairing
onto automorphism orbits to produce the non-simply-laced Cartan matrices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._exact import integer_array, inv_unitriangular
from .lattice import LieType, as_type, cartan_matrix, make_type, per_type, seifert_matrix

__all__ = [
    "Root",
    "RootSystem",
    "OrbitDecomposition",
    "FoldingSpec",
    "enumerate_roots",
    "summable_pairs",
    "coxeter_matrix",
    "monodromy_matrix",
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
    """The roots of one type in lexicographic order; -roots[i] is roots[-1 - i]."""

    lie_type: LieType
    roots: tuple[Root, ...]
    index: Mapping[Root, int] = field(repr=False)  # read-only
    coords: np.ndarray = field(repr=False, compare=False)  # the roots as read-only int64 rows

    def __len__(self) -> int:
        return len(self.roots)

    def locate(self, vectors) -> np.ndarray:
        """Index of each row of ``vectors`` among the roots.

        Rows are compared by their :func:`_keys`.  Every match is then checked
        in full, so a row that is not a root raises RuntimeError even where
        its bytes wrap onto a root's; a non-integer entry raises ValueError.
        """
        X, Q = self.coords, integer_array(vectors)
        idx = _keys(X).searchsorted(_keys(Q))
        found = X[np.minimum(idx, len(X) - 1)]
        if not np.array_equal(found, Q):
            miss = Q[np.any(found != Q, axis=1)][0]
            raise RuntimeError(f"{self.lie_type}: {tuple(miss.tolist())} is not a root")
        return idx


def _keys(A: np.ndarray) -> np.ndarray:
    """Each row as the bytes x + 128: for entries in -128..127, byte order is row order."""
    return np.ascontiguousarray(A + 128, dtype=np.uint8).view(f"V{A.shape[1]}").ravel()


# The closure holds the |Phi| x k root array several times over; the largest
# types accepted are A160 (4,121,600 entries) and D128 (4,161,536).
MAX_ROOT_ENTRIES = 2**22


@per_type
def enumerate_roots(t: LieType | str) -> RootSystem:
    """All vectors with (v, v) = 2, by reflection closure of the simple basis.

    Each round reflects the whole frontier in every simple root at once and
    keeps the images whose keys are new; the roots come out sorted.  A type
    with more than MAX_ROOT_ENTRIES root coordinates raises ValueError before
    anything is allocated.
    """
    k, entries = t.rank, t.root_count * t.rank
    if entries > MAX_ROOT_ENTRIES:
        raise ValueError(f"{t}: {entries} root entries ({8 * entries} bytes) exceed "
                         f"the limit of {MAX_ROOT_ENTRIES}")
    C = cartan_matrix(t)
    eye = np.eye(k, dtype=np.int64)
    X = frontier = np.concatenate([eye, -eye])
    while len(frontier):
        images = frontier[:, None, :] - (frontier @ C)[:, :, None] * eye
        pool = np.concatenate([X, images.reshape(-1, k)])
        _, first = np.unique(_keys(pool), return_index=True)
        X, frontier = pool[first], pool[first[first >= len(X)]]
    if len(X) != t.root_count:
        raise RuntimeError(f"{t}: expected {t.root_count} roots, found {len(X)}")
    mixed = (X > 0).any(axis=1) & (X < 0).any(axis=1)
    if mixed.any():
        raise RuntimeError(f"{t}: root {tuple(X[mixed][0].tolist())} has mixed signs")
    X.setflags(write=False)
    roots = tuple(map(tuple, X.tolist()))
    return RootSystem(t, roots, MappingProxyType({r: i for i, r in enumerate(roots)}), X)


@per_type
def summable_pairs(t: LieType | str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Root indices (a, b, a + b) and the parity of b^t B a of every ordered
    pair with (a, b) = -1, that is with a + b a root, in row-major order.

    The Coxeter element c acts freely on the roots in k orbits of size h
    (Bourbaki, Lie Groups and Lie Algebras, ch. V, 6.2) and preserves B, so
    the pairs of one root per orbit, from the k x |Phi| pairing, are carried
    with their sums and parities through the h powers of c's permutation.
    RuntimeError names the type unless c acts so and c^t B c = B.
    """
    dec = orbit_decomposition(t, "coxeter_bar")
    X, B, c = dec.root_system.coords, seifert_matrix(t), coxeter_matrix(t)
    if not (dec.is_free and len(dec.orbits) == t.rank and np.array_equal(c.T @ B @ c, B)):
        raise RuntimeError(f"{t}: c does not act freely in {t.rank} orbits with c^t B c = B")
    # Row r of the k x |Phi| pairing holds the 2h - 4 partners of reps[r].
    reps = np.array([orbit[0] for orbit in dec.orbits])
    b = np.nonzero(X[reps] @ cartan_matrix(t) @ X.T == -1)[1].reshape(len(reps), -1)
    parity = np.einsum("rpi,ri->rp", X[b] @ B, X[reps]) % 2
    total = dec.root_system.locate((X[reps, None] + X[b]).reshape(-1, t.rank)).reshape(b.shape)
    n = len(X)
    rows = np.empty((n, b.shape[1]), dtype=np.int64)  # row a: (b * n + (a + b)) * 2 + parity
    for _ in range(dec.operator_order):
        rows[reps] = (b * n + total) << 1 | parity
        reps, b, total = dec.step[reps], dec.step[b], dec.step[total]
    rows.sort(axis=1)
    b, total = np.divmod(rows.ravel() >> 1, n)
    return np.repeat(np.arange(n), rows.shape[1]), b, total, rows.ravel() & 1


@per_type
def coxeter_matrix(t: LieType | str) -> np.ndarray:
    """Matrix of c = -B^{-1}B^t in the simple basis (columns are images): the
    reflection product s_1 ... s_k, as ``verify_sT_identity`` (C04) and
    ``test_sT_identity`` check from the reflections themselves."""
    B = seifert_matrix(t)
    return -inv_unitriangular(B) @ B.T


def monodromy_matrix(t: LieType | str, basis: str = "simple") -> np.ndarray:
    """Monodromy operator: B^{-1}B^t = -c in the simple basis, and B^tB^{-1},
    the same two factors swapped, in the projective basis B^{-t}."""
    if basis == "simple":
        return -coxeter_matrix(t)
    if basis == "projective":
        B = seifert_matrix(t)
        return B.T @ inv_unitriangular(B)
    raise ValueError(f"unknown basis {basis!r}")


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
    step: np.ndarray = field(repr=False, compare=False)  # read-only: root i -> its image

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
    step = rs.locate(rs.coords @ M.T)  # root i -> M @ roots[i]
    step.setflags(write=False)
    cycles = _cycles(step.tolist())
    # The roots span the lattice, so the order of M is that of its permutation.
    order = math.lcm(*map(len, cycles))
    return OrbitDecomposition(t, operator, order, tuple(cycles), rs, step)


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
