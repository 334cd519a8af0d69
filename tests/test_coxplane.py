"""Rotation-plane projections, multiplicities and SVG output."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from geomlie.coxplane import (DegeneratePlaneError, multiplicity_report,
                              plane_basis, point_clusters, project_all,
                              render_svg)
from geomlie.lattice import make_type
from geomlie.rootsys import coxeter_matrix, enumerate_roots, orbit_decomposition

PLANE_LABELS = [f"A{k}" for k in range(2, 9)] + [f"D{k}" for k in range(3, 9)] + \
    ["E6", "E7", "E8"]
INJECTIVE = {"A2", "A4", "A6", "A8", "E7", "E8"}


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


def test_a1_degenerate():
    with pytest.raises(DegeneratePlaneError):
        plane_basis("A1")


@pytest.mark.parametrize("label", PLANE_LABELS)
def test_plane_rotation_property(label):
    t = make_type(label)
    basis = plane_basis(t)
    theta = 2 * math.pi / t.coxeter_number
    c = coxeter_matrix(t).astype(float)
    cu = c @ basis.u
    cv = c @ basis.v
    assert np.max(np.abs(cu - (math.cos(theta) * basis.u + math.sin(theta) * basis.v))) < 1e-9
    assert np.max(np.abs(cv - (-math.sin(theta) * basis.u + math.cos(theta) * basis.v))) < 1e-9


def test_plane_sign_convention_deterministic():
    b1 = plane_basis("E8")
    b2 = plane_basis("E8")
    assert np.array_equal(b1.u, b2.u)
    assert np.array_equal(b1.v, b2.v)
    lead = np.argmax(np.abs(b1.u) > 1e-8)
    assert b1.u[lead] > 0


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
    report = multiplicity_report(label)
    t = make_type(label)
    assert sum(report.values()) == t.root_count
    injective = all(v == 1 for v in report.values())
    assert injective == (label in INJECTIVE)


def test_multiplicity_examples():
    assert list(multiplicity_report("A2").values()) == [1] * 6
    e6 = multiplicity_report("E6")
    assert len(e6) < 72
    e8 = multiplicity_report("E8")
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


@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_svg_edges_join_root_differences(label):
    # Reference rule: every pair i < j whose difference is in the root index,
    # in row-major order, one line per distinct pair of rounded endpoints.
    rs = enumerate_roots(label)
    projected = project_all(label)
    radius = max(math.hypot(*p.point) for p in projected)
    scale = 0.45 * 600  # render_svg at its default size
    pts = [(x / radius * scale, -y / radius * scale) for x, y in (p.point for p in projected)]
    want = []
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if tuple(a - b for a, b in zip(rs.roots[i], rs.roots[j])) in rs.index:
                line = tuple(f"{v:.4f}" for v in (*pts[i], *pts[j]))
                if line not in want:
                    want.append(line)
    root = ET.fromstring(render_svg(label, show_edges=True))
    got = [tuple(el.get(k) for k in ("x1", "y1", "x2", "y2"))
           for el in root.iter() if el.tag.endswith("line")]
    assert got == want


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
