"""Planar wheel models whose oriented segments realize the roots.

The A wheel is a regular (k+1)-gon of punctures; every oriented segment
between punctures is one root, via the potential phi(v_i) = a_1 + .. +
a_{i-1} and class(i -> j) = phi(j) - phi(i).

The D wheel is a regular (2k-2)-gon with vertices labelled counterclockwise
v_1 .. v_{k-1}, v_{-1} .. v_{-(k-1)} plus a center puncture v_0.  Opposite
boundary edges of the polygon are identified in the underlying surface, so a
chord equals its reversed antipode (same direction vector) while the two
parallel spokes through the center stay distinct.  Segment classes again
come from a potential; antipodal chords are excluded by the center puncture.

The E wheels are kept combinatorial: a label (j, m, s) stands for s times
the m-th monodromy image of the j-th projective-basis spoke, which covers
every root exactly once.

The D bracket sign has a purely planar description: orient the two summand
segments so they concatenate, take the right-hand-rule sign of their
direction vectors, and flip it when the closed triangle strictly contains
the center puncture.  On the regular polygon both tests are integer
predicates on the vertex positions 0 .. n-1 (n = 2k - 2, counterclockwise):

* three boundary vertices are positively oriented iff they are in
  counterclockwise cyclic order;
* a triangle with the center as a vertex takes the sign of its spoke arc:
  positive iff the arc d (mod n) between its two boundary vertices, taken
  after the center in the triangle's order, satisfies 0 < d < n/2;
* a boundary triangle strictly contains the center iff every arc between
  its vertices, in counterclockwise order, is shorter than n/2.

An arc of exactly n/2 puts the center on an edge; the sign is then
undefined and the rule raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .lattice import LieType, as_type, cartan_matrix, per_type, projective_basis
from .rootsys import Root, enumerate_roots, matrix_order, monodromy_matrix

__all__ = [
    "VertexPoint",
    "WheelModel",
    "SegmentClass",
    "build_wheel",
    "segment_class",
    "enumerate_classes",
    "d_geometric_sign",
    "d_sign_pairs",
    "rotation_angle",
    "classes_payload",
]


@dataclass(frozen=True)
class VertexPoint:
    label: int
    x: float
    y: float


@dataclass(frozen=True)
class WheelModel:
    lie_type: LieType
    vertices: tuple[VertexPoint, ...]
    punctures: tuple[int, ...]
    has_center: bool
    orbit_count: int = 0       # E types only
    orbit_steps: int = 0       # monodromy order on labels
    signed_orbits: bool = False


def _a_vertices(k: int) -> list[VertexPoint]:
    n = k + 1
    return [VertexPoint(i + 1, math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
            for i in range(n)]


def _d_labels(k: int) -> list[int]:
    return [m + 1 if m < k - 1 else -(m - k + 2) for m in range(2 * (k - 1))]


def _d_vertices(k: int) -> list[VertexPoint]:
    labels = _d_labels(k)
    n = 2 * (k - 1)
    pts = [VertexPoint(lab, math.cos(2 * math.pi * m / n), math.sin(2 * math.pi * m / n))
           for m, lab in enumerate(labels)]
    return pts + [VertexPoint(0, 0.0, 0.0)]


def build_wheel(t: LieType | str) -> WheelModel:
    """Planar model for A/D; orbit-label model for the E types."""
    t = as_type(t)
    if t.family == "A":
        verts = tuple(_a_vertices(t.rank))
        return WheelModel(t, verts, tuple(v.label for v in verts), has_center=False)
    if t.family == "D":
        verts = tuple(_d_vertices(t.rank))
        return WheelModel(t, verts, tuple(v.label for v in verts), has_center=True)
    order = matrix_order(monodromy_matrix(t))
    signed = t.rank in (7, 8)  # E6 orbits already contain the negatives
    return WheelModel(t, (), (), has_center=False,
                      orbit_count=t.rank, orbit_steps=order, signed_orbits=signed)


def _a_potential(t: LieType, label: int) -> np.ndarray:
    v = np.zeros(t.rank, dtype=np.int64)
    v[: label - 1] = 1
    return v


def _d_potential(t: LieType, label: int) -> np.ndarray:
    k = t.rank
    v = np.zeros(k, dtype=np.int64)
    if label == 0:
        return v
    i = abs(label)
    v[0] = 1
    v[2:i + 1] = 1
    if label > 0:
        return v
    s = np.zeros(k, dtype=np.int64)
    s[0] = 1
    s[1] = -1
    return s - v


def segment_class(t: LieType | str, segment: Sequence[int]) -> Root:
    """Root realized by an oriented segment (A/D) or an orbit label (E)."""
    t = as_type(t)
    if t.family == "A":
        src, dst = segment
        n = t.rank + 1
        if not (1 <= src <= n and 1 <= dst <= n) or src == dst:
            raise ValueError(f"invalid A{t.rank} segment {segment}")
        out = _a_potential(t, dst) - _a_potential(t, src)
        return tuple(int(x) for x in out)
    if t.family == "D":
        src, dst = segment
        valid = set(_d_labels(t.rank)) | {0}
        if src not in valid or dst not in valid:
            raise ValueError(f"invalid D{t.rank} vertex in {segment}")
        if src == dst:
            raise ValueError("degenerate segment")
        if src == -dst:
            raise ValueError("antipodal segments are blocked by the center puncture")
        out = _d_potential(t, dst) - _d_potential(t, src)
        return tuple(int(x) for x in out)
    j, m, s = segment
    model = build_wheel(t)
    if not (1 <= j <= t.rank and 0 <= m < model.orbit_steps and s in (1, -1)):
        raise ValueError(f"invalid E{t.rank} orbit label {segment}")
    if not model.signed_orbits and s != 1:
        raise ValueError(f"E{t.rank} orbit labels are unsigned")
    M = monodromy_matrix(t)
    v = projective_basis(t)[j - 1]
    v = np.linalg.matrix_power(M, m) @ v
    return tuple(int(x) for x in (s * v))


@dataclass(frozen=True)
class SegmentClass:
    """One root together with all the wheel segments realizing it."""

    root: Root
    segments: tuple[tuple[int, ...], ...]


def _d_segments(t: LieType) -> list[tuple[int, int]]:
    labels = [0] + _d_labels(t.rank)
    return [(a, b) for a in labels for b in labels if a != b and a != -b]


def _d_midpoint_key(k: int, seg: tuple[int, int]) -> int:
    """Polar angle of a D-wheel segment's midpoint, exactly, in units of pi/n.

    Boundary position p (n = 2k - 2 of them) lies at angle 2p.  A spoke's
    midpoint lies on the ray to its boundary end; a chord (p, q) has its
    midpoint on the bisector p + q of its shorter arc, or p + q + n when that
    arc passes position 0.
    """
    n = 2 * k - 2
    p, q = (int(x) for x in _d_position(k, seg))
    if n in (p, q):
        return 2 * (p + q - n)
    return (p + q + n * (abs(p - q) > n // 2)) % (2 * n)


@per_type
def enumerate_classes(t: LieType | str) -> list[SegmentClass]:
    """Segment classes in root order; they biject with the root system.

    D representatives are listed counterclockwise by the angle of their
    midpoint, starting from the ray through v_1.
    """
    rs = enumerate_roots(t)
    groups: dict[Root, list[tuple[int, ...]]] = {}
    if t.family == "A":
        n = t.rank + 1
        for src in range(1, n + 1):
            for dst in range(1, n + 1):
                if src != dst:
                    groups.setdefault(segment_class(t, (src, dst)), []).append((src, dst))
    elif t.family == "D":
        for seg in _d_segments(t):
            groups.setdefault(segment_class(t, seg), []).append(seg)
        for root, segs in groups.items():
            segs.sort(key=lambda s: _d_midpoint_key(t.rank, s))
    else:
        model = build_wheel(t)
        signs = (1, -1) if model.signed_orbits else (1,)
        M = monodromy_matrix(t)
        Q = projective_basis(t)
        for j in range(1, t.rank + 1):
            v = Q[j - 1].copy()
            for m in range(model.orbit_steps):
                for s in signs:
                    root = tuple(int(x) for x in (s * v))
                    groups.setdefault(root, []).append((j, m, s))
                v = M @ v
    if set(groups) != set(rs.roots):
        raise RuntimeError(f"{t}: segment classes do not biject with the roots")
    return [SegmentClass(r, tuple(groups[r])) for r in rs.roots]


def _d_position(k: int, label):
    """Polygon position of D-wheel vertex labels: 0 .. n-1 counterclockwise, n the center."""
    label = np.asarray(label, dtype=np.int64)
    return np.where(label > 0, label - 1, np.where(label < 0, k - 2 - label, 2 * k - 2))


def _triangle_sign(n: int, x, y, z) -> np.ndarray:
    """Planar sign of the concatenation x -> y -> z of two D-wheel segments.

    Positions are integer arrays (0 .. n-1 on the boundary, n the center).
    The sign is the orientation of the triangle (x, y, z), negated when the
    triangle strictly contains the center; 0 marks an arc of exactly n/2,
    where one of the two tests is degenerate.  The three vertices are
    pairwise distinct.
    """
    half = n // 2
    cx, cy, cz = x == n, y == n, z == n
    spoke = cx | cy | cz
    # Rotate the center to the front: orient(0, u, v) has the sign of the arc u -> v.
    u = np.where(cx, y, np.where(cy, z, x))
    v = np.where(cx, z, np.where(cy, x, y))
    spoke_sign = np.sign(half - (v - u) % n)
    ccw = np.where((y - x) % n < (z - x) % n, 1, -1)
    p = np.sort(np.stack([x, y, z]), axis=0)
    arcs = np.stack([p[1] - p[0], p[2] - p[1], n - p[2] + p[0]])
    inside = np.where((arcs == half).any(axis=0), 0, np.where((arcs < half).all(axis=0), -1, 1))
    return np.where(spoke, spoke_sign, ccw * inside)


def d_geometric_sign(t: LieType | str, alpha, beta) -> int:
    """Planar bracket sign for two summable D roots.

    Representatives that concatenate (head of one at the tail of the other,
    in either order) give the right-hand-rule sign of the ordered direction
    pair (alpha, beta), negated when the triangle strictly contains the
    center; the entry of :func:`d_sign_pairs` for the pair.
    """
    t = as_type(t)
    if t.family != "D":
        raise ValueError("the planar sign rule is for D types")
    rs = enumerate_roots(t)
    a = tuple(int(x) for x in alpha)
    b = tuple(int(x) for x in beta)
    total = tuple(x + y for x, y in zip(a, b))
    for r in (a, b, total):
        if r not in rs.index:
            raise ValueError(f"{r} is not a root (inputs must be summable roots)")
    return int(d_sign_pairs(t)[rs.index[a], rs.index[b]])


def d_sign_pairs(t: LieType | str) -> np.ndarray:
    """Planar bracket sign of every ordered pair of D roots, as one array.

    Entry [a, b] (root indices in :func:`enumerate_roots` order) is
    ``d_geometric_sign`` of roots a and b when a + b is a root, i.e. when
    (a, b) = -1, and 0 otherwise.  Every concatenation x -> y -> z of two
    segments is one triangle: it signs (class(x, y), class(y, z)) with its
    triangle sign and the reversed pair with the opposite sign.
    """
    t = as_type(t)
    if t.family != "D":
        raise ValueError("the planar sign rule is for D types")
    rs = enumerate_roots(t)
    k, n = t.rank, 2 * t.rank - 2
    X = rs.coords
    summable = X @ cartan_matrix(t) @ X.T == -1
    root_of = np.full((n + 1, n + 1), -1, dtype=np.int64)  # root index per segment
    for r, cls in enumerate(enumerate_classes(t)):
        src, dst = _d_position(k, np.array(cls.segments).T)
        root_of[src, dst] = r
    x, y, z = np.indices((n + 1,) * 3).reshape(3, -1)
    first, second = root_of[x, y], root_of[y, z]
    keep = (first >= 0) & (second >= 0)
    keep[keep] = summable[first[keep], second[keep]]
    x, y, z, first, second = x[keep], y[keep], z[keep], first[keep], second[keep]
    sign = _triangle_sign(n, x, y, z)
    a, b, sign = np.r_[first, second], np.r_[second, first], np.r_[sign, -sign]
    if not sign.all():
        q = int(np.flatnonzero(sign == 0)[0])
        raise RuntimeError(f"{t}: degenerate wheel triangle (an arc of n/2) for "
                           f"{rs.roots[a[q]]}, {rs.roots[b[q]]}")
    pos = np.zeros(summable.shape, dtype=bool)
    neg = np.zeros(summable.shape, dtype=bool)
    pos[a[sign > 0], b[sign > 0]] = True
    neg[a[sign < 0], b[sign < 0]] = True
    for bad, what in ((pos & neg, "inconsistent planar signs"),
                      (summable & ~(pos | neg), "no concatenable representatives")):
        if bad.any():
            ia, ib = (int(v[0]) for v in np.nonzero(bad))
            raise RuntimeError(f"{t}: {what} for {rs.roots[ia]}, {rs.roots[ib]}")
    return pos.astype(np.int64) - neg


def rotation_angle(t: LieType | str) -> Fraction:
    """Wheel rotation of the monodromy, as an exact multiple of pi."""
    t = as_type(t)
    if t.family == "A":
        raise ValueError("the A wheel is not rotated by the monodromy")
    if t.family == "D":
        return Fraction(t.rank, t.rank - 1)
    return {6: Fraction(7, 6), 7: Fraction(10, 9), 8: Fraction(16, 15)}[t.rank]


def classes_payload(t: LieType | str) -> dict:
    """JSON payload: {"type", "classes": [{"root", "segments"}]}."""
    t = as_type(t)
    return {
        "type": t.label,
        "classes": [
            {"root": list(c.root), "segments": [list(s) for s in c.segments]}
            for c in enumerate_classes(t)
        ],
    }
