"""The acceptance suite: every check the package promises, run type by type.

A criterion is a one-type check returning its failure descriptions (none
means pass), an ``applies`` rule (every type by default) and the ``expected``
text of its claim.  :func:`run_verify`, the one driver, returns a
:class:`CheckResult` per (criterion, type): ``n/a`` where the criterion does
not apply, and ``error`` with the traceback where the check raised, so a
crash names its type and hides no other.  :data:`CRITERIA` holds ``(name,
criterion)`` pairs; calling a criterion on a list of labels gives the
label-list form ``(passed, expected, actual)`` that the benchmark reads,
from the same records, with ``n/a`` counted as a pass.

Checks compare the library against data frozen from independent sources: the
printed monodromy matrices, hand-folded Cartan matrices, the bracket table of
the rank-2 matrix algebra, a lattice-point enumerator that shares nothing
with the height-by-height root enumeration, and the types whose Coxeter-plane
projection is injective, which C15 decides exactly, without floats.
"""

from __future__ import annotations

import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import coxplane, liealg, wheel
from ._exact import short_vectors
from .lattice import (LieType, as_type, cartan_matrix, make_type, seifert_matrix,
                      stabilized_pairing_matrix)
from .rootsys import (CLASSICAL_FOLDINGS, OPERATORS, classical_folding, coxeter_matrix,
                      enumerate_roots, fold, monodromy_matrix,
                      orbit_decomposition, summable_pairs, verify_sT_identity)

__all__ = ["CheckResult", "Criterion", "ALL_TYPE_LABELS", "CRITERIA", "run_verify",
           "PRINTED_MONODROMY", "expected_orbit_table", "expected_folded_cartan"]

ALL_TYPE_LABELS = tuple(
    [f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(3, 9)] + ["E6", "E7", "E8"]
)

PASS, FAIL, ERROR, NA = "pass", "fail", "error", "n/a"


@dataclass(frozen=True)
class CheckResult:
    """One criterion on one type; ``traceback`` is set only for ``error``."""

    name: str
    label: str
    status: str
    expected: str
    actual: str
    millis: float
    traceback: str = ""

    @property
    def ok(self) -> bool:
        """False when the check failed or raised; ``n/a`` counts as a pass."""
        return self.status in (PASS, NA)


@dataclass(frozen=True)
class Criterion:
    """A one-type check, the types it applies to and the claim it checks."""

    name: str
    expected: str
    check: Callable[[LieType], list[str]]
    applies: Callable[[LieType], bool] = lambda t: True

    def __call__(self, labels: Sequence[str]) -> tuple[bool, str, str]:
        """Label-list form: (passed, expected, actual) over ``labels``."""
        records = _records([self], labels)
        actual = "; ".join(f"{r.label}: {r.actual}" for r in records if r.status != PASS)
        return all(r.ok for r in records), self.expected, actual or self.expected


# ---------------------------------------------------------------------------
# Frozen data
# ---------------------------------------------------------------------------

# Monodromy matrices in the projective basis, as printed for the E types.
PRINTED_MONODROMY = {
    "E6": ((1, 1, 0, 0, 1, 1), (-1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1),
           (0, 0, -1, 0, 0, 0), (0, -1, 0, -1, -1, -1), (0, 0, 0, 0, -1, 0)),
    "E7": ((1, 0, 0, 0, 1, 1, 1), (0, 1, 1, 1, 1, 1, 1), (0, -1, 0, 0, 0, 0, 0),
           (0, 0, -1, 0, 0, 0, 0), (-1, 0, 0, -1, -1, -1, -1),
           (0, 0, 0, 0, -1, 0, 0), (0, 0, 0, 0, 0, -1, 0)),
    "E8": ((1, 0, 0, 1, 1, 1, 1, 1), (0, 1, 1, 1, 1, 1, 1, 1),
           (0, -1, 0, 0, 0, 0, 0, 0), (-1, 0, -1, -1, -1, -1, -1, -1),
           (0, 0, 0, -1, 0, 0, 0, 0), (0, 0, 0, 0, -1, 0, 0, 0),
           (0, 0, 0, 0, 0, -1, 0, 0), (0, 0, 0, 0, 0, 0, -1, 0)),
}

# The full rank-2 bracket table of the traceless 3x3 matrix algebra, with
# W_i = var(a_i), X_i = g at a_i, Y_i = g at -a_i and a_3 = a_1 + a_2.
A2_TABLE = [
    ("W1", "W2", {}),
    ("W1", "X1", {"X1": 2}), ("W1", "X2", {"X2": -1}), ("W1", "X3", {"X3": 1}),
    ("W2", "X1", {"X1": -1}), ("W2", "X2", {"X2": 2}), ("W2", "X3", {"X3": 1}),
    ("W1", "Y1", {"Y1": -2}), ("W1", "Y2", {"Y2": 1}), ("W1", "Y3", {"Y3": -1}),
    ("W2", "Y1", {"Y1": 1}), ("W2", "Y2", {"Y2": -2}), ("W2", "Y3", {"Y3": -1}),
    ("X1", "Y1", {"W1": -1}), ("X2", "Y2", {"W2": -1}), ("X3", "Y3", {"W1": -1, "W2": -1}),
    ("X1", "X2", {"X3": 1}), ("X1", "X3", {}), ("X2", "X3", {}),
    ("X1", "Y2", {}), ("X1", "Y3", {"Y2": -1}), ("X2", "Y3", {"Y1": 1}),
    ("Y1", "X2", {}), ("Y1", "X3", {"X2": -1}), ("Y2", "X3", {"X1": 1}),
    ("Y1", "Y2", {"Y3": 1}), ("Y1", "Y3", {}), ("Y2", "Y3", {}),
]


def expected_orbit_table(label: str, operator: str) -> tuple[int, int, bool]:
    """(order, orbit count, free) from the singularity-side tables.

    Two kinds of monodromy entry are special.  A1 is recorded with the matrix
    order 1 and two singleton orbits.  A_k with k >= 2 and h = k + 1 = 2
    (mod 4) is not free; see the comment there.  Every other entry is the
    table value.
    """
    t = make_type(label)
    k = t.rank
    if operator == "coxeter_bar":
        return t.coxeter_number, k, True
    if t.family == "A":
        h = k + 1
        if k == 1:
            return 1, 2, True
        if k % 2 == 0:
            return 2 * h, k // 2, True
        if h % 4 == 2:
            # On the h-gon wheel, -c maps the segment i -> j to j+1 -> i+1
            # (mod h), so (-c)^s with s odd fixes it only when j - i = s = h/2,
            # which is odd exactly when h = 2 (mod 4).  The h diameters then
            # close up after h/2 steps (2 orbits), and the other h(h - 2)
            # segments form h - 2 orbits of h: order h, h orbits, not free.
            # In rank <= 8 that is A5 (6, 6); past it A9, A13, A17, ...
            return h, h, False
        return k + 1, k, True
    if t.family == "D":
        if k % 2 == 0:
            return k - 1, 2 * k, True
        return 2 * (k - 1), k, True
    return {"E6": (12, 6, True), "E7": (9, 14, True), "E8": (15, 16, True)}[label]


def expected_folded_cartan(name: str) -> np.ndarray:
    """Hand-derived folded Cartan matrices for the classical foldings."""
    src, _, dst = name.upper().partition(":")
    fam, rank = dst[0], int(dst[1:])
    if fam == "B":
        m = 2 * np.eye(rank, dtype=np.int64)
        m[0, 1] = -2
        m[1, 0] = -1
        for i in range(1, rank - 1):
            m[i, i + 1] = m[i + 1, i] = -1
        return m
    if fam == "C":
        m = 2 * np.eye(rank, dtype=np.int64)
        for i in range(rank - 2):
            m[i, i + 1] = m[i + 1, i] = -1
        m[rank - 2, rank - 1] = -2
        m[rank - 1, rank - 2] = -1
        return m
    if dst == "F4":
        return np.array([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
                        dtype=np.int64)
    if dst == "G2":
        return np.array([[2, -3], [-1, 2]], dtype=np.int64)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Criteria: one check per type, registered in order
# ---------------------------------------------------------------------------

_REGISTRY: list[Criterion] = []


def _criterion(name: str, expected: str, **applies):
    """Register the decorated one-type check as the next criterion."""
    def register(check: Callable[[LieType], list[str]]):
        _REGISTRY.append(Criterion(name, expected, check, **applies))
        return check
    return register


@_criterion("C01-root-counts", "root count equals k(k+1) / 2k(k-1) / 72,126,240")
def _c01_root_counts(t: LieType) -> list[str]:
    n = len(enumerate_roots(t))
    return [f"{n} != {t.root_count}"] if n != t.root_count else []


def _graph_shape_ok(t: LieType) -> bool:
    C = cartan_matrix(t)
    k = t.rank
    if not np.all(np.diagonal(C) == 2):
        return False
    off = C - np.diag(np.diagonal(C))
    if not np.all(np.isin(off, (0, -1))) or not np.array_equal(C, C.T):
        return False
    edges = {(i, j) for i in range(k) for j in range(i + 1, k) if C[i, j] == -1}
    if t.family == "A":
        return edges == {(i, i + 1) for i in range(k - 1)}
    if t.family == "D":
        return edges == {(0, 2), (1, 2)} | {(i, i + 1) for i in range(2, k - 1)}
    # E types: a single trivalent node whose arm lengths are fixed per rank.
    deg = [int(np.sum(C[i] == -1)) for i in range(k)]
    if sorted(deg)[-1] != 3 or deg.count(3) != 1:
        return False
    hub = deg.index(3)
    arms = []
    for start in (j for j in range(k) if C[hub, j] == -1):
        length, prev, cur = 1, hub, start
        while True:
            nxt = [j for j in range(k) if C[cur, j] == -1 and j != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return sorted(arms) == {6: [1, 2, 2], 7: [1, 2, 3], 8: [1, 2, 4]}[k]


@_criterion("C02-cartan-recovery", "B + B^t is the standard Cartan matrix with the right graph")
def _c02_cartan(t: LieType) -> list[str]:
    B = seifert_matrix(t)
    fails = []
    if not np.array_equal(cartan_matrix(t), B + B.T):
        fails.append("B + B^t differs from the Cartan matrix")
    if not _graph_shape_ok(t):
        fails.append("wrong Dynkin graph")
    return fails


@_criterion("C03-printed-monodromy",
            "projective monodromy equals the printed matrices, orders 12/9/15",
            applies=lambda t: t.label in PRINTED_MONODROMY)
def _c03_printed_monodromy(t: LieType) -> list[str]:
    P = monodromy_matrix(t, basis="projective")
    if not np.array_equal(P, np.array(PRINTED_MONODROMY[t.label], dtype=np.int64)):
        return ["matrix mismatch"]
    # P is -c in the projective basis, so it has the order of the monodromy.
    order = orbit_decomposition(t).operator_order
    want = expected_orbit_table(t.label, "monodromy")[0]
    return [f"order {order} != {want}"] if order != want else []


@_criterion("C04-sT-identity", "S_1..S_k = -(T_1..T_k) for every type")
def _c04_sT(t: LieType) -> list[str]:
    return [] if verify_sT_identity(t) else ["S_1..S_k != -(T_1..T_k)"]


@_criterion("C05-orbit-tables",
            "orbit tables match, both operators free except the A monodromy with h = 2 mod 4")
def _c05_orbits(t: LieType) -> list[str]:
    fails = []
    for op in OPERATORS:
        want = expected_orbit_table(t.label, op)
        dec = orbit_decomposition(t, op)
        got = (dec.operator_order, len(dec.orbits), dec.is_free)
        if got != want:
            fails.append(f"{op}: {got} != {want}")
    return fails


@_criterion("C06-pairing-invariance",
            "P^t B P = B, hence P^t C P = C, for the monodromy of every type")
def _c06_pairing_invariance(t: LieType) -> list[str]:
    B = seifert_matrix(t)
    P = monodromy_matrix(t)
    return [] if np.array_equal(P.T @ B @ P, B) else ["P^t B P != B"]


@_criterion("C07-lie-algebra-laws",
            "antisymmetry + the lift of c an automorphism + ad of one of e_1..e_k, g_{-theta} "
            "per kept c-orbit a derivation (Jacobi; the kept orbits generate Phi, two on even D, "
            "one otherwise), dims k+|Phi|, E8 within budget")
def _c07_lie_laws(t: LieType) -> list[str]:
    fails = []
    L = liealg.build(t)
    if L.dimension != t.dimension:
        fails.append(f"dim {L.dimension}")
    start = time.perf_counter()
    report = liealg.check_jacobi(L)
    elapsed = (time.perf_counter() - start) * 1000
    if not report.antisymmetric:
        fails.append("antisymmetry violated")
    elif not report.lift_certified:
        fails.append("lift of c not certified")
    if report.violations:
        fails.append(f"{len(report.violations)} Jacobi violations")
    if t.label == "E8" and elapsed > 90_000:
        fails.append(f"E8 sweep took {elapsed:.0f} ms > 90 s")
    return fails


@_criterion("C08-sl2-triples", "[h,e]=2e, [h,f]=-2f, [e,f]=-h for every root")
def _c08_sl2(t: LieType) -> list[str]:
    bad = liealg.check_sl2(liealg.build(t))
    return [f"{bad[0]} and {len(bad) - 1} more roots break sl2 laws"] if bad else []


def _symbol_elements(L: liealg.LieAlgebra) -> dict[str, liealg.AlgebraElement]:
    roots = {(1, 0): "1", (0, 1): "2", (1, 1): "3"}
    out = {"W1": L.cartan_gen(1), "W2": L.cartan_gen(2)}
    for r, tag in roots.items():
        out[f"X{tag}"] = L.root_gen(r)
        out[f"Y{tag}"] = L.root_gen(tuple(-x for x in r))
    return out


@_criterion("C09-type-A-matrix-model",
            "traceless-matrix model bracket-preserving, A2 table verbatim",
            applies=liealg.has_slk_model)
def _c09_type_a_model(t: LieType) -> list[str]:
    L = liealg.build(t)
    fails = [] if liealg.slk_model_check(L) else ["model mismatch"]
    if t.label == "A2":
        sym = _symbol_elements(L)
        for lhs, rhs, expect in A2_TABLE:
            want = sum((sym[x].scaled(c) for x, c in expect.items()), liealg.AlgebraElement(()))
            if liealg.bracket(L, sym[lhs], sym[rhs]) != want:
                fails.append(f"A2 table: [{lhs},{rhs}]")
    return fails


@_criterion("C10-killing-nondegenerate", "det of the Killing form is nonzero for every type")
def _c10_killing(t: LieType) -> list[str]:
    L = liealg.build(t)
    return [] if liealg.is_nondegenerate(liealg.killing_form(L)) else ["Killing form degenerate"]


@_criterion("C11-planar-sign-rule",
            "planar triangle sign equals the algebraic sign on all summable pairs",
            applies=lambda t: t.family in ("A", "D"))
def _c11_planar_sign(t: LieType) -> list[str]:
    # In (i, j, m) order the table's rows [g_a, g_b] -> g_{a+b} are the summable pairs.
    T, k = liealg.build(t).table, t.rank
    rows = (T.i >= k) & (T.j >= k) & (T.m >= k)
    a, b = summable_pairs(t)[:2]
    if not (np.array_equal(T.i[rows] - k, a) and np.array_equal(T.j[rows] - k, b)):
        return ["the [g_a, g_b] rows onto roots are not the summable pairs"]
    bad = np.count_nonzero(T.c[rows] != wheel.sign_pairs(t))
    return [f"{bad} mismatches"] if bad else []


@_criterion("C12-wheel-bijections",
            "A segments biject with the formula; D class counts match; E labels biject")
def _c12_wheel_bijections(t: LieType) -> list[str]:
    k = t.rank
    classes = wheel.enumerate_classes(t)
    fails = []
    if t.family == "D":
        if len(classes) != 2 * k * (k - 1):
            return [f"{len(classes)} classes"]
        counts = {"i": 0, "ii": 0, "iii": 0, "iv": 0}
        for c in classes:
            first, second = abs(c.root[0]), abs(c.root[1])
            kind = {(0, 0): "i", (1, 1): "ii", (1, 0): "iii", (0, 1): "iv"}[(first, second)]
            counts[kind] += 1
            want_reps = 2 if kind in ("i", "ii") else 1
            if len(c.segments) != want_reps:
                fails.append(f"class {c.root} has {len(c.segments)} reps")
        expected = {"i": (k - 1) * (k - 2), "ii": (k - 1) * (k - 2),
                    "iii": 2 * (k - 1), "iv": 2 * (k - 1)}
        if counts != expected:
            fails.append(f"pattern counts {counts} != {expected}")
    elif len(classes) != t.root_count or any(len(c.segments) != 1 for c in classes):
        fails.append("segment map is not a bijection")
    elif t.family == "A":
        for i in range(1, k + 2):
            for j in range(i + 1, k + 2):
                want = tuple(1 if i <= m + 1 < j else 0 for m in range(k))
                if wheel.segment_class(t, (i, j)) != want:
                    fails.append(f"segment ({i},{j}) formula")
    return fails


@_criterion("C13-stabilization", "stabilized pairing equals C for n = 2..6")
def _c13_stabilization(t: LieType) -> list[str]:
    fails = []
    C = cartan_matrix(t)
    # Independent sign oracle: expanding the suspension formula step by step
    # must make the n-variable pairing constant in n.
    sign = 1  # Seifert sign s_n relative to the curve case, n = 2
    for n in range(2, 7):
        if n > 2:
            sign *= (-1) ** (n - 1) * (-1)  # tensor factor times the 1-variable value
        if ((-1) ** (n * (n + 1) // 2)) * sign != -1:
            fails.append(f"sign oracle fails at n={n}")
        if not np.array_equal(stabilized_pairing_matrix(t, n), C):
            fails.append(f"n={n}")
    return fails


def _foldings_from(t: LieType) -> list[str]:
    return [name for name in CLASSICAL_FOLDINGS if name.partition(":")[0] == t.label]


@_criterion("C14-folding", "the four classical folding families fold correctly",
            applies=lambda t: bool(_foldings_from(t)))
def _c14_folding(t: LieType) -> list[str]:
    fails = []
    for name in _foldings_from(t):
        try:
            got = fold(classical_folding(name))
        except ValueError as exc:
            fails.append(f"{name}: {exc}")
            continue
        if not np.array_equal(got, expected_folded_cartan(name)):
            fails.append(f"{name}: matrix mismatch")
    return fails


def _coxeter_projection_injective(t: LieType) -> bool:
    """Whether the Coxeter-plane projection separates all roots: exactly for
    A_k with k even (h odd) and for E7, E8, never for D_k or E6 (measured on
    A2-A31, D3-D20 and E6-E8).  Only "never" is proved: a diagram symmetry
    that keeps the bipartition commutes with the Coxeter element, so it
    joins the projections of alpha_i and alpha_(sigma i)."""
    return (t.family == "A" and t.rank % 2 == 0) or t.label in ("E7", "E8")


@_criterion("C15-coxeter-plane", "K != 0, key(c x) = c key(x), injectivity per type",
            applies=lambda t: t.rank >= 2)
def _c15_coxplane(t: LieType) -> list[str]:
    rs, c, K = enumerate_roots(t), coxeter_matrix(t), coxplane._fibre_map(t)
    fails = [] if K.any() else ["K = 0: no rotation eigenvalue exp(2 pi i / h)"]
    keys = rs.coords @ K.T
    image = orbit_decomposition(t, "coxeter_bar").step
    moved = int(np.sum(np.any(keys[image] != keys @ c.T, axis=1)))
    if moved:
        fails.append(f"key(c x) != c key(x) for {moved} roots")
    injective = all(len(g) == 1 for g in coxplane.point_clusters(t))
    if injective != _coxeter_projection_injective(t):
        fails.append(f"injectivity {injective}")
    return fails


_BOX_SCAN_MAX_RANK = 6
_BOX_SCAN_BOUND = 3


def _box_scan(C: np.ndarray) -> set[tuple[int, ...]]:
    """Literal scan of the integer box |v_i| <= _BOX_SCAN_BOUND for v^t C v = 2.

    The box holds every root of the types scanned.  For positive definite C,
    v_i = (C^-1 e_i)^t C v, so Cauchy-Schwarz in the form C gives
    v_i^2 <= (C^-1)_ii v^t C v, i.e. v_i^2 <= 2 (C^-1)_ii on the roots
    (Fincke-Pohst, Math. Comp. 44, 1985).  Over A1-A6, D3-D6 and E6, the
    types of rank <= _BOX_SCAN_MAX_RANK, the largest (C^-1)_ii is 6, at E6's
    trivalent node (A_k: i (k + 1 - i) / (k + 1) <= 12/7; D_k: at most
    k - 2 = 4), so |v_i| <= isqrt(12) = 3.  The scan itself uses no bound
    on C: it tests every point of the box, so a form that is not positive
    definite (the negative control) is scanned as it is.

    Every point of the box is tested in integers.  With v = (lead, tail),
    v^t C v = C_00 lead^2 + lead ((C_0,1: + C_1:,0) . tail) + tail^t C' tail
    for any C.  The two tail terms are built once by broadcasting over the
    (2 bound + 1)^(k-1) grid of tails, so each leading value costs one pass,
    and only the hits are decoded.
    """
    k, bound = C.shape[0], _BOX_SCAN_BOUND
    c = [[int(x) for x in row] for row in C]
    # Every term is at most bound^2 |C_il|, so int32 is exact below this sum.
    dtype = np.int32 if bound * bound * sum(abs(x) for row in c for x in row) + 2 < 2 ** 31 \
        else np.int64
    # axis[i] varies along grid axis i; summing the highest axes first keeps
    # every partial sum smaller than the grid until the last term.
    axis = [np.arange(-bound, bound + 1, dtype=dtype).reshape((-1,) + (1,) * (k - 2 - i))
            for i in range(k - 1)]

    def linear(coef, first):
        return sum((coef[i] * axis[i] for i in reversed(range(first, k - 1))),
                   np.zeros((), dtype))

    cross = linear([c[0][i + 1] + c[i + 1][0] for i in range(k - 1)], 0)
    quad = np.zeros((), dtype)
    for i in reversed(range(k - 1)):
        # Tail coordinate i contributes C'_ii t_i^2 + sum_{l > i} (C'_il + C'_li) t_i t_l.
        coef = [c[i + 1][l + 1] + c[l + 1][i + 1] for l in range(k - 1)]
        coef[i] = c[i + 1][i + 1]
        quad = quad + axis[i] * linear(coef, i)
    out: set[tuple[int, ...]] = set()
    for lead in range(-bound, bound + 1):
        hits = np.flatnonzero(quad + lead * cross == 2 - c[0][0] * lead * lead)
        # A leading axis of length one keeps the decode uniform for k = 1.
        tails = np.stack(np.unravel_index(hits, (1,) + quad.shape), axis=1)[:, 1:] - bound
        out.update((lead, *row) for row in tails.tolist())
    return out


@_criterion("C16-scan-oracle", "enumerated roots equal the independent lattice scan")
def _c16_scan_oracle(t: LieType) -> list[str]:
    fails = []
    C = cartan_matrix(t)
    roots = set(enumerate_roots(t).roots)
    if roots != set(short_vectors(C, 2)):
        fails.append("roots and lattice enumeration differ")
    if t.rank <= _BOX_SCAN_MAX_RANK and roots != _box_scan(C):
        fails.append("roots and box scan differ")
    return fails


CRITERIA: tuple[tuple[str, Criterion], ...] = tuple((c.name, c) for c in _REGISTRY)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _evaluate(c: Criterion, t: LieType) -> CheckResult:
    if not c.applies(t):
        return CheckResult(c.name, t.label, NA, c.expected, NA, 0.0)
    start = time.perf_counter()
    try:
        fails = c.check(t)
    except Exception as exc:  # a crashed check is an error record for this type only
        status, actual, trace = ERROR, f"{type(exc).__name__}: {exc}", traceback.format_exc()
    else:
        status, actual, trace = (FAIL, "; ".join(fails), "") if fails else (PASS, c.expected, "")
    millis = (time.perf_counter() - start) * 1000
    return CheckResult(c.name, t.label, status, c.expected, actual, millis, trace)


def _records(criteria: Iterable[Criterion], labels: Iterable[str]) -> list[CheckResult]:
    """The records of each criterion on each type, in that order.

    A type too large for the Lie criteria is refused with ValueError before
    any criterion runs (:func:`liealg.refuse_oversized`).
    """
    with warnings.catch_warnings():
        # The D3 rank-floor notice is the user's concern, not the sweep's.
        warnings.filterwarnings("ignore", message="D3 coincides with A3")
        types = [as_type(lab) for lab in labels]
        for t in types:
            liealg.refuse_oversized(t)
        return [_evaluate(c, t) for c in criteria for t in types]


def run_verify(labels: Iterable[str] | None = None) -> list[CheckResult]:
    """One record per (criterion, type), criterion by criterion (default: all types)."""
    return _records([c for _, c in CRITERIA], ALL_TYPE_LABELS if labels is None else labels)
