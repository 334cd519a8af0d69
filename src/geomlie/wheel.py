"""Planar wheel models whose oriented segments realize the roots.

The A_k wheel is a regular (k+1)-gon of punctures v_1 .. v_{k+1}.  The D_k
wheel is a regular (2k-2)-gon with vertices labelled counterclockwise
v_1 .. v_{k-1}, v_{-1} .. v_{-(k-1)} plus a center puncture v_0.  Opposite
boundary edges of the D polygon are identified in the underlying surface, so
a chord equals its reversed antipode (same direction vector) while the two
parallel spokes through the center stay distinct; antipodal chords are
blocked by the center puncture.  On both wheels the segment i -> j realizes
the root phi(v_j) - phi(v_i) of a vertex potential:

* A: phi(v_i) = a_1 + .. + a_{i-1};
* D: phi(v_i) = a_1 + a_3 + .. + a_{i+1}, phi(v_{-i}) = -a_2 - .. - a_{i+1}
  and phi(v_0) = 0.

The E wheels are kept combinatorial: a label (j, m, s) stands for s times
the m-th monodromy image of the j-th projective-basis spoke, which covers
every root exactly once.

The bracket sign has one planar description for A and D: orient the two
summand segments so they concatenate, x -> y -> z, and take the orientation
of the triangle (x, y, z).  The D wheel adds its center: a triangle with the
center as a vertex takes the sign of its spoke, and a boundary triangle that
strictly contains the center is negated.  On the regular polygon every test
is an integer predicate on the vertex positions 0 .. n-1 (counterclockwise;
the D center is position n, n = 2k - 2):

* three boundary vertices are positively oriented iff they are in
  counterclockwise cyclic order;
* a triangle with the center as a vertex is positive iff the arc d (mod n)
  between its two boundary vertices, taken after the center in the
  triangle's order, satisfies 0 < d < n/2;
* a boundary triangle strictly contains the center iff every arc between
  its vertices, in counterclockwise order, is shorter than n/2.

On the D wheel an arc of exactly n/2 puts the center on an edge; the sign
is then undefined and the rule raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ._exact import _bands, _ranges
from .lattice import LieType, as_type, per_type, projective_basis
from .rootsys import Root, enumerate_roots, orbit_decomposition, summable_pairs

__all__ = [
    "VertexPoint",
    "WheelModel",
    "SegmentClass",
    "build_wheel",
    "segment_class",
    "enumerate_classes",
    "sign_pairs",
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


@per_type
def _planar(t: LieType) -> tuple[np.ndarray, np.ndarray]:
    """Vertex labels by polygon position (D center last) and the potential of each vertex."""
    if t.family not in ("A", "D"):
        raise ValueError(f"{t}: the planar wheel exists only for A and D types")
    k = t.rank
    if t.family == "A":
        return np.arange(1, k + 2), np.tri(k + 1, k, -1, dtype=np.int64)
    i = np.arange(1, k)
    up = np.zeros((k - 1, k), dtype=np.int64)
    up[:, 0] = 1
    up[:, 2:] = np.tri(k - 1, k - 2, -1, dtype=np.int64)
    down = -up
    down[:, :2] = (0, -1)
    return np.concatenate([i, -i, [0]]), np.vstack([up, down, np.zeros((1, k), dtype=np.int64)])


@per_type
def _segment_roots(t: LieType) -> np.ndarray:
    """root_of[p, q]: index of the root realized by the segment from position p to q.

    The entry is -1 where there is no segment: p = q, and the antipodal
    pairs that the D center blocks.
    """
    labels, phi = _planar(t)
    root_of = np.full((len(labels),) * 2, -1, dtype=np.int64)
    p, q = np.nonzero((labels[:, None] != -labels[None, :]) & ~np.eye(len(labels), dtype=bool))
    root_of[p, q] = enumerate_roots(t).locate(phi[q] - phi[p])
    return root_of


def build_wheel(t: LieType | str) -> WheelModel:
    """Planar model for A/D; orbit-label model for the E types."""
    t = as_type(t)
    if t.family in ("A", "D"):
        labels, _ = _planar(t)
        center = t.family == "D"
        n = len(labels) - center
        verts = tuple(VertexPoint(int(lab), math.cos(2 * math.pi * m / n),
                                  math.sin(2 * math.pi * m / n))
                      for m, lab in enumerate(labels[:n]))
        verts += (VertexPoint(0, 0.0, 0.0),) * center
        return WheelModel(t, verts, tuple(v.label for v in verts), has_center=center)
    order = orbit_decomposition(t).operator_order
    signed = 2 * t.rank * order == t.root_count  # E6 orbits already hold the negatives
    return WheelModel(t, (), (), has_center=False, orbit_count=t.rank,
                      orbit_steps=order, signed_orbits=signed)


def segment_class(t: LieType | str, segment: Sequence[int]) -> Root:
    """Root realized by an oriented segment (A/D) or an orbit label (E).

    Anything that is not a segment of the wheel raises ValueError: a
    degenerate or antipodal segment, an unknown vertex, a signed E6 label.
    """
    t = as_type(t)
    root = _segment_map(t).get(tuple(segment))
    if root is None:
        raise ValueError(f"{t}: {segment} is not a segment of the wheel")
    return root


@dataclass(frozen=True)
class SegmentClass:
    """One root together with all the wheel segments realizing it."""

    root: Root
    segments: tuple[tuple[int, ...], ...]


def _midpoint_key(n: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Polar angle of D-wheel segment midpoints, exactly, in units of pi/n.

    Boundary position p (n = 2k - 2 of them) lies at angle 2p.  A spoke's
    midpoint lies on the ray to its boundary end; a chord (p, q) has its
    midpoint on the bisector p + q of its shorter arc, or p + q + n when that
    arc passes position 0.
    """
    chord = (p + q + n * (np.abs(p - q) > n // 2)) % (2 * n)
    return np.where((p == n) | (q == n), 2 * (p + q - n), chord)


@per_type
def enumerate_classes(t: LieType | str) -> tuple[SegmentClass, ...]:
    """Segment classes in root order; they biject with the root system.

    D representatives are listed counterclockwise by the angle of their
    midpoint, starting from the ray through v_1.
    """
    rs = enumerate_roots(t)
    groups: dict[Root, list[tuple[int, ...]]] = {}
    if t.family in ("A", "D"):
        labels, _ = _planar(t)
        root_of = _segment_roots(t)
        src, dst = np.nonzero(root_of >= 0)
        if t.family == "D":
            order = np.argsort(_midpoint_key(len(labels) - 1, src, dst), kind="stable")
            src, dst = src[order], dst[order]
        for r, a, b in zip(root_of[src, dst].tolist(), labels[src].tolist(),
                           labels[dst].tolist()):
            groups.setdefault(rs.roots[r], []).append((a, b))
    else:
        model = build_wheel(t)
        signs = (1, -1) if model.signed_orbits else (1,)
        step = orbit_decomposition(t).step
        # spokes[j, n]: root index of signs[n] times the j-th projective spoke.
        spokes = np.stack([rs.locate(s * projective_basis(t)) for s in signs], axis=1)
        for j, at in enumerate(spokes, 1):
            for m in range(model.orbit_steps):
                for s, i in zip(signs, at.tolist()):
                    groups.setdefault(rs.roots[i], []).append((j, m, s))
                at = step[at]
    if set(groups) != set(rs.roots):
        raise RuntimeError(f"{t}: segment classes do not biject with the roots")
    return tuple(SegmentClass(r, tuple(groups[r])) for r in rs.roots)


@per_type
def _segment_map(t: LieType) -> Mapping[tuple[int, ...], Root]:
    """The root of every segment (A/D) or orbit label (E), read-only."""
    return MappingProxyType({seg: c.root for c in enumerate_classes(t) for seg in c.segments})


def _triangle_sign(n: int, x, y, z, center: bool) -> np.ndarray:
    """Planar sign of the concatenation x -> y -> z of two wheel segments.

    Positions are integer arrays (0 .. n-1 on the boundary; n is the center
    of a wheel that has one) and the three vertices are pairwise distinct.
    The sign is the orientation of the triangle (x, y, z).  With a center, a
    spoke triangle takes the sign of its spoke arc and a triangle that
    strictly contains the center is negated; 0 marks an arc of exactly n/2,
    where one of the two tests is degenerate.
    """
    ccw = np.where((y - x) % n < (z - x) % n, 1, -1)
    if not center:
        return ccw
    half = n // 2
    cx, cy, cz = x == n, y == n, z == n
    # Rotate the center to the front: orient(0, u, v) has the sign of the arc u -> v.
    u = np.where(cx, y, np.where(cy, z, x))
    v = np.where(cx, z, np.where(cy, x, y))
    spoke_sign = np.sign(half - (v - u) % n)
    p = np.sort(np.stack([x, y, z]), axis=0)
    arcs = np.stack([p[1] - p[0], p[2] - p[1], n - p[2] + p[0]])
    inside = np.where((arcs == half).any(axis=0), 0, np.where((arcs < half).all(axis=0), -1, 1))
    return np.where(cx | cy | cz, spoke_sign, ccw * inside)


# sign_pairs signs the concatenations in bands of about this many, so its
# peak does not grow with the cube of the wheel's vertex count.
_SIGN_BAND = 1 << 14


def sign_pairs(t: LieType | str) -> np.ndarray:
    """Planar bracket sign of every summable pair of A or D roots, as one array.

    Entry q is the planar sign of the pair (a[q], b[q]) of
    :func:`~geomlie.rootsys.summable_pairs`, the ordered pairs with
    (a, b) = -1.  Every concatenation x -> y -> z of two segments whose
    roots are summable is one triangle: it signs (class(x, y), class(y, z))
    with its triangle sign and the reversed pair with the opposite sign.
    The concatenations are listed by joining each segment x -> y with the
    segments that start at y, in (x, y, z) order, a band of about
    _SIGN_BAND of them at a time.
    """
    t = as_type(t)
    root_of, center = _segment_roots(t), t.family == "D"
    rs, (a, b, _, _), n = enumerate_roots(t), summable_pairs(t), t.root_count
    listed = np.append(a * n + b, n * n)  # n^2 ends the list: no pair key reaches it
    src, dst = np.nonzero(root_of >= 0)  # the segments, by (start, end)
    out = np.bincount(src, minlength=len(root_of))[dst]  # the segments that continue each
    after = np.searchsorted(src, dst)  # the first of them
    pos, neg = np.zeros(len(a), dtype=bool), np.zeros(len(a), dtype=bool)
    for s0, s1 in _bands(out, _SIGN_BAND):
        into = np.repeat(np.arange(s0, s1), out[s0:s1])
        onward = _ranges(after[s0:s1], out[s0:s1])
        first, second = root_of[src[into], dst[into]], root_of[dst[into], dst[onward]]
        at = listed.searchsorted(first * n + second)
        keep = listed[at] == first * n + second
        into, onward, first, second, at = (v[keep] for v in (into, onward, first, second, at))
        sign = _triangle_sign(len(root_of) - center, src[into], dst[into], dst[onward], center)
        if not sign.all():
            q = at[np.flatnonzero(sign == 0)[0]]
            raise RuntimeError(f"{t}: degenerate wheel triangle (an arc of n/2) for "
                               f"{rs.roots[a[q]]}, {rs.roots[b[q]]}")
        reverse = listed.searchsorted(second * n + first)
        pos[at[sign > 0]] = pos[reverse[sign < 0]] = True
        neg[at[sign < 0]] = neg[reverse[sign > 0]] = True
    for bad, what in ((pos & neg, "inconsistent planar signs"),
                      (~(pos | neg), "no concatenable representatives")):
        if bad.any():
            q = np.flatnonzero(bad)[0]
            raise RuntimeError(f"{t}: {what} for {rs.roots[a[q]]}, {rs.roots[b[q]]}")
    return pos.astype(np.int64) - neg


def rotation_angle(t: LieType | str) -> Fraction:
    """Wheel rotation of the monodromy -c, pi + 2 pi / h, as an exact multiple of pi."""
    t = as_type(t)
    if t.family == "A":
        raise ValueError("the A wheel is not rotated by the monodromy")
    return Fraction(t.coxeter_number + 2, t.coxeter_number)


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
