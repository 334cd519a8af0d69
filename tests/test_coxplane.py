"""Rotation-plane projections, multiplicities and SVG output."""

from __future__ import annotations

import math
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import sympy

from geomlie import cli, coxplane, verify
from geomlie.coxplane import (DegeneratePlaneError, plane_basis, point_clusters,
                              project_all, render_svg)
from geomlie.lattice import cartan_matrix, make_type
from geomlie.rootsys import coxeter_matrix, enumerate_roots, orbit_decomposition

PLANE_LABELS = [f"A{k}" for k in range(2, 9)] + [f"D{k}" for k in range(3, 9)] + \
    ["E6", "E7", "E8"]
INJECTIVE = {"A2", "A4", "A6", "A8", "E7", "E8"}
SERIES_LABELS = [f"A{k}" for k in range(2, 17)] + [f"D{k}" for k in range(3, 17)] + \
    ["E6", "E7", "E8"]
FRAME_LABELS = [f"A{k}" for k in range(2, 32)] + [f"D{k}" for k in range(3, 21)] + \
    ["E6", "E7", "E8"]


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


def test_a1_degenerate():
    with pytest.raises(DegeneratePlaneError):
        plane_basis("A1")


def eig_frame(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Test-only reference: the frame (u, v) through a float eigensolver.

    The exp(-2*pi*i/h) eigenvector of c is picked among all eigenvalues,
    phased real positive at its first coordinate above 1e-8 of its largest,
    and its real and imaginary parts are C-orthonormalized.
    """
    t = make_type(label)
    theta = 2 * math.pi / t.coxeter_number
    C = cartan_matrix(t).astype(float)
    eigvals, eigvecs = np.linalg.eig(coxeter_matrix(t).astype(float))
    target = complex(math.cos(theta), -math.sin(theta))
    pick = int(np.argmin(np.abs(eigvals - target)))
    assert abs(eigvals[pick] - target) < 1e-6
    z = eigvecs[:, pick]
    lead = int(np.argmax(np.abs(z) > 1e-8 * np.max(np.abs(z))))
    z = z * (z[lead].conjugate() / abs(z[lead]))
    u, v = z.real.copy(), z.imag.copy()
    u /= math.sqrt(u @ C @ u)
    v -= (u @ C @ v) * u
    v /= math.sqrt(v @ C @ v)
    return u, v


@pytest.mark.parametrize("label", FRAME_LABELS)
def test_plane_matches_eigensolver_frame(label):
    basis = plane_basis(label)
    u, v = eig_frame(label)
    assert np.max(np.abs(basis.u - u)) < 1e-12
    assert np.max(np.abs(basis.v - v)) < 1e-12


@pytest.mark.parametrize("label", FRAME_LABELS)
def test_plane_rotation_property(label):
    t = make_type(label)
    basis = plane_basis(t)
    theta = 2 * math.pi / t.coxeter_number
    c = coxeter_matrix(t).astype(float)
    C = cartan_matrix(t).astype(float)
    cu = c @ basis.u
    cv = c @ basis.v
    assert np.max(np.abs(cu - (math.cos(theta) * basis.u + math.sin(theta) * basis.v))) < 1e-9
    assert np.max(np.abs(cv - (-math.sin(theta) * basis.u + math.cos(theta) * basis.v))) < 1e-9
    gram = np.array([[a @ C @ b for b in (basis.u, basis.v)] for a in (basis.u, basis.v)])
    assert np.max(np.abs(gram - np.eye(2))) < 1e-9


def test_plane_sign_convention_deterministic():
    b1 = plane_basis("E8")
    b2 = plane_basis("E8")
    assert np.array_equal(b1.u, b2.u)
    assert np.array_equal(b1.v, b2.v)
    # The eigenvector's first nonzero coordinate is the first nonzero row of K.
    lead = int(np.flatnonzero(coxplane._fibre_map("E8").any(axis=1))[0])
    assert b1.u[lead] > 0
    assert abs(b1.v[lead]) < 1e-12


def test_plane_refuses_oversized_type_before_powers_of_c():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="root entries"):
        plane_basis("A3000")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("label", PLANE_LABELS)
def test_projection_equivariance(label):
    t = make_type(label)
    rs = enumerate_roots(t)
    projected = project_all(t)
    c = coxeter_matrix(t)
    theta = 2 * math.pi / t.coxeter_number
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    for i, pr in enumerate(projected):
        image = tuple(int(x) for x in (c @ np.array(pr.root)))
        got = np.array(projected[rs.index[image]].point)
        want = rot @ np.array(pr.point)
        assert np.max(np.abs(got - want)) < 1e-9


def test_projection_negation_linearity():
    t = make_type("D4")
    rs = enumerate_roots(t)
    projected = project_all(t)
    for i, pr in enumerate(projected):
        j = rs.index[tuple(-x for x in pr.root)]
        assert math.dist(projected[j].point, (-pr.point[0], -pr.point[1])) < 1e-12


@pytest.mark.parametrize("label", ["A3", "D4", "E6", "E8"])
def test_orbit_norm_constancy(label):
    t = make_type(label)
    projected = project_all(t)
    dec = orbit_decomposition(t, "coxeter_bar")
    for orbit in dec.orbits:
        norms = [math.hypot(*projected[i].point) for i in orbit]
        assert max(norms) - min(norms) < 1e-9


@pytest.mark.parametrize("label", PLANE_LABELS)
def test_injectivity_table(label):
    sizes = [len(group) for group in point_clusters(label)]
    t = make_type(label)
    assert sum(sizes) == t.root_count
    injective = all(v == 1 for v in sizes)
    assert injective == (label in INJECTIVE)


def float_clusters(label: str, tol: float = 1e-6) -> list[list[int]]:
    """Test-only oracle: union-find over float projections within ``tol``."""
    pts = [p.point for p in project_all(label)]
    parent = list(range(len(pts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if math.dist(pts[i], pts[j]) <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(pts)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


@pytest.mark.parametrize("label", SERIES_LABELS)
def test_exact_fibres_match_float_clusters(label):
    fibres = point_clusters(label)
    assert fibres == float_clusters(label)
    injective = all(len(g) == 1 for g in fibres)
    assert injective == verify._coxeter_projection_injective(make_type(label))


@pytest.mark.parametrize("label", ["A1"] + SERIES_LABELS)
def test_fibre_map_is_the_primitive_part(label):
    # rank K = phi(h) and Phi_h(c) K = 0: the primitive h-th roots of unity
    # are simple eigenvalues of c and K maps onto their sum of eigenspaces.
    t = make_type(label)
    h = t.coxeter_number
    K = coxplane._fibre_map(t)
    assert sympy.Matrix(K.tolist()).rank() == sympy.totient(h)
    c = coxeter_matrix(t).astype(object)
    x = sympy.Symbol("x")
    phi_c = np.zeros_like(c)
    for coeff in sympy.Poly(sympy.cyclotomic_poly(h, x), x).all_coeffs():
        phi_c = phi_c @ c + int(coeff) * np.eye(t.rank, dtype=object)
    assert not (phi_c @ K.astype(object)).any()


def test_floats_only_draw(monkeypatch, capsys):
    want = cli.main(["coxplane", "E6"]), capsys.readouterr().out

    def refuse(t):
        raise AssertionError("the fibres must not use the float plane")

    monkeypatch.setattr(coxplane, "plane_basis", refuse)
    monkeypatch.setattr(coxplane, "project_all", refuse)
    got = cli.main(["coxplane", "E6"]), capsys.readouterr().out
    assert got == want == (0, "E6: 48 projection clusters over 72 roots\n"
                              "cluster sizes: [1, 2]\n")
    (c15,) = [c for name, c in verify.CRITERIA if name == "C15-coxeter-plane"]
    passed, _, actual = c15(verify.ALL_TYPE_LABELS)
    assert passed, actual


def test_multiplicity_examples():
    assert [len(group) for group in point_clusters("A2")] == [1] * 6
    e6 = point_clusters("E6")
    assert len(e6) < 72
    e8 = point_clusters("E8")
    assert len(e8) == 240


def test_edge_rule_symmetry():
    t = make_type("A3")
    rs = enumerate_roots(t)
    edges = set()
    for i in range(len(rs)):
        for j in range(len(rs)):
            if i == j:
                continue
            diff = tuple(a - b for a, b in zip(rs.roots[i], rs.roots[j]))
            if diff in rs.index:
                edges.add((i, j))
    assert all((j, i) in edges for (i, j) in edges)


def test_svg_deterministic_and_wellformed():
    one = render_svg("E6", show_edges=True)
    two = render_svg("E6", show_edges=True)
    assert one == two
    root = ET.fromstring(one)
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert circles and lines


def drawn_points(label: str) -> list[tuple[str, str]]:
    """Test-only: each root's point as render_svg draws it at its default size.

    Rounded to 4 places; a coordinate that rounds to zero prints unsigned.
    """
    projected = project_all(label)
    radius = max(math.hypot(*p.point) for p in projected)
    scale = 0.45 * 600
    return [tuple(f"{round(v, 4) + 0.0:.4f}" for v in (x / radius * scale, -y / radius * scale))
            for x, y in (p.point for p in projected)]


def k_fibres(label: str) -> list[list[int]]:
    """Test-only: root indices grouped by K x in sympy, K = prod_{p | h prime} (c^(h/p) - I)."""
    t = make_type(label)
    h, eye = t.coxeter_number, sympy.eye(t.rank)
    c = sympy.Matrix(coxeter_matrix(t).tolist())
    K = eye
    for p in sympy.primefactors(h):
        K = K * (c ** (h // p) - eye)
    groups: dict[tuple, list[int]] = {}
    for i, r in enumerate(enumerate_roots(t).roots):
        groups.setdefault(tuple(K * sympy.Matrix(r)), []).append(i)
    return list(groups.values())


def svg_elements(svg: str, tag: str, keys: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [tuple(el.get(k) for k in keys)
            for el in ET.fromstring(svg).iter() if el.tag.endswith(tag)]


SVG_ORACLE_LABELS = ["A3", "D4", "E6", "A8", "D8", "E7", "E8"]


@pytest.mark.parametrize("label", SVG_ORACLE_LABELS)
def test_svg_edges_join_root_differences(label):
    # Reference rule: every pair i < j whose difference is in the root index,
    # in row-major order, one line per distinct pair of rounded endpoints.
    rs = enumerate_roots(label)
    pts = drawn_points(label)
    want: dict[tuple[str, ...], None] = {}
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if tuple(a - b for a, b in zip(rs.roots[i], rs.roots[j])) in rs.index:
                want.setdefault(pts[i] + pts[j])
    got = svg_elements(render_svg(label, show_edges=True), "line", ("x1", "y1", "x2", "y2"))
    assert got == list(want)


@pytest.mark.parametrize("label", SVG_ORACLE_LABELS)
def test_svg_circles_mark_k_fibres(label):
    # One circle per K-fibre, at the fibre's first root, colored by the
    # coxeter_bar orbit of that root.
    pts = drawn_points(label)
    orbit_of = {r: k for k, orbit in enumerate(orbit_decomposition(label, "coxeter_bar").orbits)
                for r in orbit}
    want = [(*pts[g[0]], coxplane.PALETTE[orbit_of[g[0]] % 16]) for g in k_fibres(label)]
    for show_edges in (False, True):
        svg = render_svg(label, show_edges=show_edges)
        assert svg_elements(svg, "circle", ("cx", "cy", "fill")) == want


def test_svg_edges_never_form_the_whole_pairing():
    # A60 has 3660 roots, so its |Phi| x |Phi| int64 pairing alone is 107 MB;
    # the edges are read off the summable pairs, which are found in row
    # blocks of it, and the 14 MB text stays.
    n = len(enumerate_roots("A60"))
    render_svg("A60")  # fills the per-type caches outside the traced region
    tracemalloc.start()
    try:
        render_svg("A60", show_edges=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("label", ["A1"] + SERIES_LABELS)
def test_svg_prints_no_negative_zero(label):
    assert "-0.0000" not in render_svg(label, show_edges=True)


def test_svg_a2_hexagon():
    svg = render_svg("A2")
    root = ET.fromstring(svg)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 6
    # all six dots on one circle
    radii = {round(math.hypot(float(c.get("cx")), float(c.get("cy"))), 4) for c in circles}
    assert len(radii) == 1


def test_svg_e8_cluster_count():
    svg = render_svg("E8")
    root = ET.fromstring(svg)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 240


def test_svg_a1_two_dots():
    svg = render_svg("A1")
    root = ET.fromstring(svg)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 2
