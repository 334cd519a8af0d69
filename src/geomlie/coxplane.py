"""Projection of roots to the rotation-invariant plane, and SVG rendering.

This is the only module that touches floating point.  The Coxeter element c
preserves the pairing C and acts on a distinguished 2-plane as a rotation by
2*pi/h; the plane is the real span of an eigenvector for exp(-2*pi*i/h),
with the eigenvalue branch chosen so that c moves projected points
counterclockwise.  Projections are C-inner products against a C-orthonormal
frame (u, v) of that plane, with a deterministic phase and sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LieType, as_type, cartan_matrix
from .rootsys import Root, coxeter_matrix, enumerate_roots, orbit_decomposition

__all__ = [
    "DegeneratePlaneError",
    "PlaneBasis",
    "ProjectedRoot",
    "plane_basis",
    "project_all",
    "point_clusters",
    "multiplicity_report",
    "render_svg",
]

TOLERANCE = 1e-9
CLUSTER_TOLERANCE = 1e-6

# Fixed 16-entry palette for orbit coloring.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#8c6d31",
    "#843c39", "#7b4173", "#637939", "#3182bd",
)


class DegeneratePlaneError(ValueError):
    """No distinguished rotation plane exists (rank 1, h = 2)."""


@dataclass(frozen=True)
class PlaneBasis:
    """C-orthonormal frame (u, v) of the c-invariant rotation plane."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class ProjectedRoot:
    root: Root
    point: tuple[float, float]


def plane_basis(t: LieType | str) -> PlaneBasis:
    """Extract the plane on which c rotates points by +2*pi/h.

    Phase convention: the first coordinate of the eigenvector above the noise
    floor is made real positive, so u has a positive first significant entry
    and the frame is deterministic.
    """
    t = as_type(t)
    if t.rank < 2:
        raise DegeneratePlaneError(f"{t}: no invariant plane in rank 1")
    theta = 2 * math.pi / t.coxeter_number
    c = coxeter_matrix(t).astype(np.float64)
    C = cartan_matrix(t).astype(np.float64)
    eigvals, eigvecs = np.linalg.eig(c)
    target = complex(math.cos(theta), -math.sin(theta))
    pick = int(np.argmin(np.abs(eigvals - target)))
    if abs(eigvals[pick] - target) > 1e-6:
        raise RuntimeError(f"{t}: failed to isolate the rotation eigenvalue")
    z = eigvecs[:, pick]
    lead = int(np.argmax(np.abs(z) > 1e-8 * np.max(np.abs(z))))
    z = z * (z[lead].conjugate() / abs(z[lead]))
    u = z.real.copy()
    v = z.imag.copy()
    u /= math.sqrt(u @ C @ u)
    v -= (u @ C @ v) * u
    v /= math.sqrt(v @ C @ v)
    basis = PlaneBasis(u, v)
    _validate_plane(t, c, C, basis, theta)
    return basis


def _validate_plane(t: LieType, c, C, basis: PlaneBasis, theta: float) -> None:
    u, v = basis.u, basis.v
    tol = TOLERANCE
    if abs(u @ C @ u - 1) > tol or abs(v @ C @ v - 1) > tol or abs(u @ C @ v) > tol:
        raise RuntimeError(f"{t}: plane frame is not C-orthonormal")
    # c u = cos(theta) u + sin(theta) v and c v = -sin(theta) u + cos(theta) v
    if (np.max(np.abs(c @ u - (math.cos(theta) * u + math.sin(theta) * v))) > tol
            or np.max(np.abs(c @ v - (-math.sin(theta) * u + math.cos(theta) * v))) > tol):
        raise RuntimeError(f"{t}: frame is not rotated by 2*pi/h")


def project_all(t: LieType | str) -> list[ProjectedRoot]:
    """One projected point per root: (root . C u, root . C v)."""
    t = as_type(t)
    basis = plane_basis(t)
    rs = enumerate_roots(t)
    C = cartan_matrix(t).astype(np.float64)
    X = rs.coords.astype(np.float64)
    xs = X @ C @ basis.u
    ys = X @ C @ basis.v
    return [ProjectedRoot(r, (float(xs[i]), float(ys[i]))) for i, r in enumerate(rs.roots)]


def point_clusters(projected: list[ProjectedRoot]) -> list[list[int]]:
    """Group projection indices whose points lie within CLUSTER_TOLERANCE (union-find)."""
    n = len(projected)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pts = [p.point for p in projected]
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(pts[i], pts[j]) <= CLUSTER_TOLERANCE:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def multiplicity_report(t: LieType | str) -> dict[tuple[float, float], int]:
    """Cluster sizes of the projected points, keyed by a representative point."""
    t = as_type(t)
    projected = project_all(t)
    report: dict[tuple[float, float], int] = {}
    for group in point_clusters(projected):
        x, y = projected[group[0]].point
        report[(round(x, 6), round(y, 6))] = len(group)
    return report


def _svg_header(size: int) -> list[str]:
    s = size / 2
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="{-s:.1f} {-s:.1f} {size} {size}">',
        f'<rect x="{-s:.1f}" y="{-s:.1f}" width="{size}" height="{size}" fill="white"/>',
    ]


def render_svg(t: LieType | str, show_edges: bool = False, size: int = 600) -> str:
    """Deterministic SVG of the projected roots.

    One dot per projection cluster; optional edges between projections of
    roots whose difference is again a root; colors follow the orbit of the
    coxeter_bar operator through a fixed palette.  Rank 1 degenerates to two
    dots on a fixed axis.
    """
    t = as_type(t)
    lines = _svg_header(size)
    scale = 0.45 * size
    if t.rank < 2:
        for x in (-0.5, 0.5):
            lines.append(f'<circle cx="{x * scale:.4f}" cy="0.0000" r="4.0" '
                         f'fill="{PALETTE[0]}"/>')
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
    rs = enumerate_roots(t)
    projected = project_all(t)
    radius = max(math.hypot(*p.point) for p in projected)
    pts = [(p.point[0] / radius * scale, -p.point[1] / radius * scale) for p in projected]
    color_of_root = [PALETTE[0]] * len(rs)
    for orbit_idx, orbit in enumerate(orbit_decomposition(t, "coxeter_bar").orbits):
        for r in orbit:
            color_of_root[r] = PALETTE[orbit_idx % len(PALETTE)]
    if show_edges:
        drawn = set()
        lines.append('<g stroke="#b0b0b0" stroke-width="0.5">')
        # a - b is a root exactly when |a - b|^2 = 4 - 2 (a, b) = 2, i.e. (a, b) = 1.
        X = rs.coords
        for i, j in np.argwhere(np.triu(X @ cartan_matrix(t) @ X.T == 1, 1)):
            key = (round(pts[i][0], 4), round(pts[i][1], 4),
                   round(pts[j][0], 4), round(pts[j][1], 4))
            if key in drawn:
                continue
            drawn.add(key)
            lines.append(f'<line x1="{pts[i][0]:.4f}" y1="{pts[i][1]:.4f}" '
                         f'x2="{pts[j][0]:.4f}" y2="{pts[j][1]:.4f}"/>')
        lines.append("</g>")
    for group in point_clusters(projected):
        i = group[0]
        lines.append(f'<circle cx="{pts[i][0]:.4f}" cy="{pts[i][1]:.4f}" r="4.0" '
                     f'fill="{color_of_root[i]}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
