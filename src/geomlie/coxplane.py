"""Which roots share a point of the Coxeter plane, and the SVG that draws it.

The Coxeter element c preserves the pairing C and rotates a distinguished
2-plane by 2*pi/h.  Integers decide which roots share a projected point: K,
the product over primes p | h of (c^(h/p) - I), kills the non-primitive h-th
roots of unity and is invertible on the primitive ones, so roots x and y
share a point iff K x = K y.  Floats only place the dots: C-inner products
with a C-orthonormal frame (u, v) of the real span of an exp(-2*pi*i/h)
eigenvector, which :func:`plane_basis` sums from the integer powers of c
and phases at the first nonzero row of K, with no eigensolver or tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LieType, as_type, cartan_matrix, per_type
from .rootsys import Root, coxeter_matrix, enumerate_roots, orbit_decomposition, summable_pairs

__all__ = [
    "DegeneratePlaneError",
    "PlaneBasis",
    "ProjectedRoot",
    "plane_basis",
    "project_all",
    "point_clusters",
    "render_svg",
]

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
    """The C-orthonormal frame (u, v) of the plane that c turns by +2*pi/h.

    As c^h = I, z = sum over j < h of zeta^j c^j e_m, zeta = exp(2*pi*i/h),
    is h times the projection of e_m onto the exp(-2*pi*i/h) eigenspace.  K
    maps onto the primitive eigenspaces, simple and Galois conjugate to that
    one, so z != 0 for m the first nonzero column of K, and z[i] = 0 iff row
    i of K is zero.  z is phased real positive at lead, the first nonzero row
    of K; u and v are its real and imaginary parts, C-orthonormalized.
    """
    t = as_type(t)
    if t.rank < 2:
        raise DegeneratePlaneError(f"{t}: no invariant plane in rank 1")
    K = _fibre_map(t)
    m, lead = (int(np.flatnonzero(K.any(axis=a))[0]) for a in (0, 1))
    c, h = coxeter_matrix(t), t.coxeter_number
    columns = [np.eye(t.rank, dtype=np.int64)[m]]
    for _ in range(h - 1):
        columns.append(c @ columns[-1])
    z = np.exp(2j * math.pi * np.arange(h) / h) @ np.array(columns)
    z = z * (z[lead].conjugate() / abs(z[lead]))
    C = cartan_matrix(t).astype(np.float64)
    u, v = z.real.copy(), z.imag.copy()
    u /= math.sqrt(u @ C @ u)
    v -= (u @ C @ v) * u
    v /= math.sqrt(v @ C @ v)
    return PlaneBasis(u, v)


def project_all(t: LieType | str) -> list[ProjectedRoot]:
    """One projected point per root: (root . C u, root . C v)."""
    t = as_type(t)
    basis = plane_basis(t)
    rs = enumerate_roots(t)
    XC = rs.coords.astype(np.float64) @ cartan_matrix(t).astype(np.float64)
    xs, ys = XC @ basis.u, XC @ basis.v
    return [ProjectedRoot(r, (float(xs[i]), float(ys[i]))) for i, r in enumerate(rs.roots)]


@per_type
def _fibre_map(t: LieType) -> np.ndarray:
    """K = prod over primes p | h of (c^(h/p) - I): K x = K y iff x, y share a point."""
    enumerate_roots(t)  # refuses a type too large to enumerate before any power of c
    c = coxeter_matrix(t)
    eye = np.eye(t.rank, dtype=np.int64)
    h = t.coxeter_number
    if not np.array_equal(np.linalg.matrix_power(c, h), eye):
        raise RuntimeError(f"{t}: c^h is not the identity")
    K = eye
    for p in range(2, h + 1):
        if h % p == 0 and all(p % q for q in range(2, p)):
            K = K @ (np.linalg.matrix_power(c, h // p) - eye)
    return K


def point_clusters(t: LieType | str) -> list[list[int]]:
    """Root indices sharing a projected point (exact fibres of K), by smallest member."""
    t = as_type(t)
    if t.rank < 2:
        raise DegeneratePlaneError(f"{t}: no invariant plane in rank 1")
    fibres: dict[tuple[int, ...], list[int]] = {}
    keys = enumerate_roots(t).coords @ _fibre_map(t).T
    for i, key in enumerate(keys.tolist()):
        fibres.setdefault(tuple(key), []).append(i)
    return list(fibres.values())


def _coord(v: float) -> str:
    """``v`` to 4 decimals; an on-axis coordinate is float noise of either sign, printed unsigned."""
    text = f"{v:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _edges(t: LieType, fibres: list[list[int]]) -> tuple[list[int], list[int]]:
    """For each (fibre of i, fibre of j), its first pair i < j in row-major
    order with a_i - a_j a root; the i and the j as two lists.

    a_i - a_j is a root exactly when a_i + (-a_j) is, and -a_j is root
    n - 1 - j, so the pairs are read off :func:`~geomlie.rootsys.summable_pairs`.
    """
    (a, b, _, _), n = summable_pairs(t), t.root_count
    rep = np.empty(n, dtype=np.int64)
    for group in fibres:
        rep[group] = group[0]
    i, j = np.divmod(np.sort((a * n + n - 1 - b)[a + b < n - 1]), n)  # j = n - 1 - b > i
    _, first = np.unique(rep[i] * n + rep[j], return_index=True)
    first.sort()
    return i[first].tolist(), j[first].tolist()


def render_svg(t: LieType | str, show_edges: bool = False, size: int = 600) -> str:
    """Deterministic SVG of the projected roots.

    One dot per fibre of K, at the fibre's first root; optional edges, one
    per ordered pair of fibres holding roots i < j whose difference is again
    a root, drawn between the first such pair in row-major order.  Colors
    follow the orbit of the coxeter_bar operator through a fixed palette.
    Each root's coordinates are formatted once and every element is built
    from those strings.  Rank 1 degenerates to two dots on a fixed axis.
    """
    if size < 1:
        raise ValueError(f"SVG size must be a positive number of pixels, got {size}")
    t = as_type(t)
    s = size / 2
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="{-s:.1f} {-s:.1f} {size} {size}">',
        f'<rect x="{-s:.1f}" y="{-s:.1f}" width="{size}" height="{size}" fill="white"/>',
    ]
    scale = 0.45 * size
    if t.rank < 2:
        for x in (-0.5, 0.5):
            lines.append(f'<circle cx="{x * scale:.4f}" cy="0.0000" r="4.0" '
                         f'fill="{PALETTE[0]}"/>')
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
    points = [p.point for p in project_all(t)]
    radius = max(math.hypot(x, y) for x, y in points)
    xs = [_coord(x / radius * scale) for x, _ in points]
    ys = [_coord(-y / radius * scale) for _, y in points]
    color_of_root = [PALETTE[o % len(PALETTE)]
                     for o in orbit_decomposition(t, "coxeter_bar").orbit_of.tolist()]
    fibres = point_clusters(t)
    if show_edges:
        lines.append('<g stroke="#b0b0b0" stroke-width="0.5">')
        lines += [f'<line x1="{xs[i]}" y1="{ys[i]}" x2="{xs[j]}" y2="{ys[j]}"/>'
                  for i, j in zip(*_edges(t, fibres))]
        lines.append("</g>")
    lines += [f'<circle cx="{xs[i]}" cy="{ys[i]}" r="4.0" fill="{color_of_root[i]}"/>'
              for i in (group[0] for group in fibres)]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
