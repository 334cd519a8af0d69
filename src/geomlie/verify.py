"""The acceptance suite: every check the package promises, run end to end.

Each criterion is a named function returning (passed, expected, actual); the
runner times them and collects :class:`CheckResult` records.  Checks compare
the library against data frozen from independent sources: the printed
monodromy matrices, hand-folded Cartan matrices, the bracket table of the
rank-2 matrix algebra, and a lattice-point enumerator that shares nothing
with the reflection-closure path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import coxplane, liealg, wheel
from ._exact import short_vectors
from .lattice import (LieType, cartan_matrix, make_type, seifert_matrix,
                      stabilized_pairing_matrix)
from .rootsys import (CLASSICAL_FOLDINGS, FreenessError, classical_folding,
                      coxeter_matrix, enumerate_roots, fold, matrix_order,
                      monodromy_matrix, orbit_decomposition, verify_sT_identity)

__all__ = ["CheckResult", "ALL_TYPE_LABELS", "CRITERIA", "run_verify",
           "PRINTED_MONODROMY", "expected_orbit_table", "expected_folded_cartan"]

ALL_TYPE_LABELS = tuple(
    [f"A{k}" for k in range(1, 9)] + [f"D{k}" for k in range(3, 9)] + ["E6", "E7", "E8"]
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str
    millis: int


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
_PRINTED_POWER = {"E6": 12, "E7": 9, "E8": 15}

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

    Two monodromy entries are special cases.  A1 is recorded with the matrix
    order 1 and two singleton orbits.  A5 is not free; see the comment there.
    Every other entry is the table value.
    """
    t = make_type(label)
    k = t.rank
    if operator == "coxeter_bar":
        return t.coxeter_number, k, True
    if t.family == "A":
        if k == 1:
            return 1, 2, True
        if k % 2 == 0:
            return 2 * (k + 1), k // 2, True
        if k == 5:
            # On the hexagon wheel, -c maps the segment i -> j to j+1 -> i+1
            # (mod h = 6), so (-c)^s with s odd fixes it only when
            # j - i = s = h/2 = 3.  The six diameters therefore close up after
            # 3 steps (2 orbits of 3), and the other 24 segments form 4 orbits
            # of 6: order 6, 6 orbits, not free.  This happens whenever
            # h = 2 (mod 4); in rank <= 8 that is A1 and A5.
            return 6, 6, False
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
# Criterion implementations
# ---------------------------------------------------------------------------

def _fmt_fail(fails: list[str], ok_msg: str) -> tuple[bool, str, str]:
    if fails:
        return False, ok_msg, "; ".join(fails)
    return True, ok_msg, ok_msg


def _c01_root_counts(labels: Sequence[str]):
    fails = []
    for lab in labels:
        t = make_type(lab)
        n = len(enumerate_roots(t))
        if n != t.root_count:
            fails.append(f"{lab}: {n} != {t.root_count}")
    return _fmt_fail(fails, "closure count equals k(k+1) / 2k(k-1) / 72,126,240")


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


def _c02_cartan(labels: Sequence[str]):
    fails = []
    for lab in labels:
        t = make_type(lab)
        B = seifert_matrix(t)
        if not np.array_equal(cartan_matrix(t), B + B.T) or not _graph_shape_ok(t):
            fails.append(lab)
    return _fmt_fail(fails, "B + B^t is the standard Cartan matrix with the right graph")


def _c03_printed_monodromy(labels: Sequence[str]):
    fails = []
    targets = [lab for lab in labels if lab in PRINTED_MONODROMY]
    for lab in targets:
        P = monodromy_matrix(lab, basis="projective")
        if not np.array_equal(P, np.array(PRINTED_MONODROMY[lab], dtype=np.int64)):
            fails.append(f"{lab}: matrix mismatch")
            continue
        order = matrix_order(P)
        if order != _PRINTED_POWER[lab]:
            fails.append(f"{lab}: order {order} != {_PRINTED_POWER[lab]}")
    msg = "projective monodromy equals the printed matrices, orders 12/9/15"
    if not targets:
        return True, msg, "n/a (no E types selected)"
    return _fmt_fail(fails, msg)


def _c04_sT(labels: Sequence[str]):
    fails = [lab for lab in labels if not verify_sT_identity(lab)]
    return _fmt_fail(fails, "S_1..S_k = -(T_1..T_k) for every type")


def _c05_orbits(labels: Sequence[str]):
    fails = []
    for lab in labels:
        for op in ("monodromy", "coxeter_bar"):
            order, orbits, free = expected_orbit_table(lab, op)
            try:
                dec = orbit_decomposition(lab, op, require_free=free)
            except FreenessError as exc:
                fails.append(f"{lab}/{op}: {exc}")
                continue
            got = (dec.operator_order, len(dec.orbits), dec.is_free)
            if got != (order, orbits, free):
                fails.append(f"{lab}/{op}: {got} != {(order, orbits, free)}")
    return _fmt_fail(fails, "orbit tables match, both operators free except the A5 monodromy")


def _c06_pairing_invariance(labels: Sequence[str]):
    fails = []
    for lab in labels:
        C = cartan_matrix(lab)
        P = monodromy_matrix(lab)
        if not np.array_equal(P.T @ C @ P, C):
            fails.append(lab)
    return _fmt_fail(fails, "P^t C P = C for the monodromy of every type")


def _c07_lie_laws(labels: Sequence[str]):
    fails = []
    e8_ms = None
    for lab in labels:
        t = make_type(lab)
        L = liealg.build(t)
        if L.dimension != t.rank + t.root_count:
            fails.append(f"{lab}: dim {L.dimension}")
        if liealg.check_antisymmetry(L):
            fails.append(f"{lab}: antisymmetry violated")
        start = time.perf_counter()
        report = liealg.check_jacobi(L)
        elapsed = (time.perf_counter() - start) * 1000
        if lab == "E8":
            e8_ms = elapsed
        if report.violations:
            fails.append(f"{lab}: {len(report.violations)} Jacobi violations")
    if e8_ms is not None and e8_ms > 90_000:
        fails.append(f"E8 sweep took {e8_ms:.0f} ms > 90 s")
    return _fmt_fail(fails, "antisymmetry + Jacobi clean, dims k+|Phi|, E8 within budget")


def _c08_sl2(labels: Sequence[str]):
    fails = []
    for lab in labels:
        L = liealg.build(make_type(lab))
        try:
            for r in L.root_system.roots:
                liealg.sl2_triple(L, r)
        except RuntimeError as exc:
            fails.append(f"{lab}: {exc}")
    return _fmt_fail(fails, "[h,e]=2e, [h,f]=-2f, [e,f]=-h for every root")


def _symbol_elements(L: liealg.LieAlgebra) -> dict[str, liealg.AlgebraElement]:
    roots = {(1, 0): "1", (0, 1): "2", (1, 1): "3"}
    out = {"W1": L.cartan_gen(1), "W2": L.cartan_gen(2)}
    for r, tag in roots.items():
        out[f"X{tag}"] = L.root_gen(r)
        out[f"Y{tag}"] = L.root_gen(tuple(-x for x in r))
    return out


def _c09_type_a_model(labels: Sequence[str]):
    fails = []
    ranks = sorted(make_type(lab).rank for lab in labels if lab.upper().startswith("A"))
    for k in ranks:
        if not liealg.slk_model_check(k):
            fails.append(f"A{k}: model mismatch")
    if 2 in ranks:
        L = liealg.build(make_type("A2"))
        sym = _symbol_elements(L)
        for lhs, rhs, expect in A2_TABLE:
            want = liealg.AlgebraElement(())
            for name, coef in expect.items():
                want = want + sym[name].scaled(coef)
            if liealg.bracket(L, sym[lhs], sym[rhs]) != want:
                fails.append(f"A2 table: [{lhs},{rhs}]")
    msg = "traceless-matrix model bracket-preserving, A2 table verbatim"
    if not ranks:
        return True, msg, "n/a (no A types selected)"
    return _fmt_fail(fails, msg)


def _c10_killing(labels: Sequence[str]):
    fails = []
    for lab in labels:
        L = liealg.build(make_type(lab))
        if not liealg.is_nondegenerate(liealg.killing_form(L)):
            fails.append(lab)
    return _fmt_fail(fails, "det of the Killing form is nonzero for every type")


def _c11_d_sign(labels: Sequence[str]):
    fails = []
    d_labels = [lab for lab in labels if lab.upper().startswith("D")]
    for lab in d_labels:
        t = make_type(lab)
        X = enumerate_roots(t).coords
        S = X @ seifert_matrix(t) @ X.T  # S[b, a] = var(b) . a
        # N(a, b) = (-1)^(var(b) . a) on the summable pairs (a, b) = -1, 0 elsewhere.
        algebraic = np.where(S + S.T == -1, 1 - 2 * (S.T % 2), 0)
        bad = int(np.count_nonzero(wheel.d_sign_pairs(t) != algebraic))
        if bad:
            fails.append(f"{lab}: {bad} mismatches")
    msg = "planar triangle sign equals the algebraic sign on all summable pairs"
    if not d_labels:
        return True, msg, "n/a (no D types selected)"
    return _fmt_fail(fails, msg)


def _c12_wheel_bijections(labels: Sequence[str]):
    fails = []
    for lab in labels:
        t = make_type(lab)
        if t.family == "A":
            classes = wheel.enumerate_classes(t)
            if len(classes) != t.root_count or any(len(c.segments) != 1 for c in classes):
                fails.append(f"{lab}: segment map is not a bijection")
                continue
            k = t.rank
            for i in range(1, k + 2):
                for j in range(i + 1, k + 2):
                    want = tuple(1 if i <= m + 1 < j else 0 for m in range(k))
                    if wheel.segment_class(t, (i, j)) != want:
                        fails.append(f"{lab}: segment ({i},{j}) formula")
        elif t.family == "D":
            k = t.rank
            classes = wheel.enumerate_classes(t)
            if len(classes) != 2 * k * (k - 1):
                fails.append(f"{lab}: {len(classes)} classes")
                continue
            counts = {"i": 0, "ii": 0, "iii": 0, "iv": 0}
            for c in classes:
                first, second = abs(c.root[0]), abs(c.root[1])
                kind = {(0, 0): "i", (1, 1): "ii", (1, 0): "iii", (0, 1): "iv"}[(first, second)]
                counts[kind] += 1
                want_reps = 2 if kind in ("i", "ii") else 1
                if len(c.segments) != want_reps:
                    fails.append(f"{lab}: class {c.root} has {len(c.segments)} reps")
            expected = {"i": (k - 1) * (k - 2), "ii": (k - 1) * (k - 2),
                        "iii": 2 * (k - 1), "iv": 2 * (k - 1)}
            if counts != expected:
                fails.append(f"{lab}: pattern counts {counts} != {expected}")
    return _fmt_fail(fails, "A segments biject with the formula; D class counts match")


def _c13_stabilization(labels: Sequence[str]):
    fails = []
    # Independent sign oracle: expanding the suspension formula step by step
    # must make the n-variable pairing constant in n.
    sign = 1  # Seifert sign s_n relative to the curve case, n = 2
    for n in range(2, 7):
        if n > 2:
            sign *= (-1) ** (n - 1) * (-1)  # tensor factor times the 1-variable value
        if ((-1) ** (n * (n + 1) // 2)) * sign != -1:
            fails.append(f"sign oracle fails at n={n}")
    for lab in labels:
        C = cartan_matrix(lab)
        for n in range(2, 7):
            if not np.array_equal(stabilized_pairing_matrix(lab, n), C):
                fails.append(f"{lab}, n={n}")
    return _fmt_fail(fails, "stabilized pairing equals C for n = 2..6")


def _c14_folding(labels: Sequence[str]):
    fails = []
    for name in CLASSICAL_FOLDINGS:
        try:
            got = fold(classical_folding(name))
        except ValueError as exc:
            fails.append(f"{name}: {exc}")
            continue
        if not np.array_equal(got, expected_folded_cartan(name)):
            fails.append(f"{name}: matrix mismatch")
    return _fmt_fail(fails, "the four classical folding families fold correctly")


def _c15_coxplane(labels: Sequence[str]):
    fails = []
    injective_labels = {"A2", "A4", "A6", "A8", "E7", "E8"}
    for lab in labels:
        t = make_type(lab)
        if t.rank < 2:
            continue
        theta = 2 * np.pi / t.coxeter_number
        projected = coxplane.project_all(t)
        rs = enumerate_roots(t)
        c = coxeter_matrix(t)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        worst = 0.0
        for i, pr in enumerate(projected):
            image = tuple(int(x) for x in (c @ np.array(pr.root)))
            target = np.array(projected[rs.index[image]].point)
            err = float(np.max(np.abs(target - rot @ np.array(pr.point))))
            worst = max(worst, err)
        if worst > 1e-9:
            fails.append(f"{lab}: equivariance residual {worst:.2e}")
        clusters = coxplane.point_clusters(projected)
        injective = all(len(g) == 1 for g in clusters)
        if injective != (lab in injective_labels):
            fails.append(f"{lab}: injectivity {injective}")
    return _fmt_fail(fails, "rotation equivariance within 1e-9, injectivity per type")


_BOX_SCAN_MAX_RANK = 6
_BOX_SCAN_BOUND = 6


def _box_scan(C: np.ndarray) -> set[tuple[int, ...]]:
    """Literal scan of the integer box |v_i| <= _BOX_SCAN_BOUND for v^t C v = 2.

    Every point of the box is tested in int64.  With v = (lead, tail),
    v^t C v = C_00 lead^2 + lead ((C_0,1: + C_1:,0) . tail) + tail^t C' tail
    for any C; the two tail terms are computed once, so each leading value
    costs one vector pass.
    """
    k, bound = C.shape[0], _BOX_SCAN_BOUND
    side = 2 * bound + 1
    # Every tail in the box of the k - 1 trailing coordinates; one empty tail for k = 1.
    tail = np.indices((side,) * (k - 1)).reshape(k - 1, side ** (k - 1)).T - bound
    cross = tail @ (C[0, 1:] + C[1:, 0])
    quad = np.einsum("vi,vi->v", tail @ C[1:, 1:], tail)
    out: set[tuple[int, ...]] = set()
    for lead in range(-bound, bound + 1):
        hits = tail[C[0, 0] * lead * lead + lead * cross + quad == 2]
        out.update((lead, *(int(x) for x in row)) for row in hits)
    return out


def _c16_scan_oracle(labels: Sequence[str]):
    fails = []
    for lab in labels:
        t = make_type(lab)
        C = cartan_matrix(t)
        closure = set(enumerate_roots(t).roots)
        enumerated = set(short_vectors(C, 2))
        if closure != enumerated:
            fails.append(f"{lab}: closure and lattice enumeration differ")
        if t.rank <= _BOX_SCAN_MAX_RANK and closure != _box_scan(C):
            fails.append(f"{lab}: closure and box scan differ")
    return _fmt_fail(fails, "reflection closure equals the independent lattice scan")


CRITERIA: tuple[tuple[str, Callable], ...] = (
    ("C01-root-counts", _c01_root_counts),
    ("C02-cartan-recovery", _c02_cartan),
    ("C03-printed-monodromy", _c03_printed_monodromy),
    ("C04-sT-identity", _c04_sT),
    ("C05-orbit-tables", _c05_orbits),
    ("C06-pairing-invariance", _c06_pairing_invariance),
    ("C07-lie-algebra-laws", _c07_lie_laws),
    ("C08-sl2-triples", _c08_sl2),
    ("C09-type-A-matrix-model", _c09_type_a_model),
    ("C10-killing-nondegenerate", _c10_killing),
    ("C11-d-sign-rule", _c11_d_sign),
    ("C12-wheel-bijections", _c12_wheel_bijections),
    ("C13-stabilization", _c13_stabilization),
    ("C14-folding", _c14_folding),
    ("C15-coxeter-plane", _c15_coxplane),
    ("C16-scan-oracle", _c16_scan_oracle),
)


def run_verify(labels: Iterable[str] | None = None) -> list[CheckResult]:
    """Run every acceptance criterion over the given types (default: all)."""
    import warnings

    labels = list(labels) if labels is not None else list(ALL_TYPE_LABELS)
    results = []
    with warnings.catch_warnings():
        # The D3 rank-floor notice is the user's concern, not the sweep's.
        warnings.filterwarnings("ignore", message="D3 coincides with A3")
        labels = [make_type(lab).label for lab in labels]
        for name, func in CRITERIA:
            start = time.perf_counter()
            try:
                passed, expected, actual = func(labels)
            except Exception as exc:  # a crashed check is a failed check
                passed, expected = False, "check to complete"
                actual = f"{type(exc).__name__}: {exc}"
            millis = int((time.perf_counter() - start) * 1000)
            results.append(CheckResult(name, passed, expected, actual, millis))
    return results
