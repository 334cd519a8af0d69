"""Wheel models: segment classes, the planar sign rule, rotation data."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from geomlie.lattice import make_type
from geomlie.liealg import n_sign
from geomlie.rootsys import enumerate_roots, monodromy_matrix
from geomlie import wheel
from geomlie.wheel import (build_wheel, classes_payload, d_geometric_sign,
                           d_sign_pairs, enumerate_classes, rotation_angle,
                           segment_class)


pytestmark = pytest.mark.usefixtures("quiet_d3_warning")


def test_build_wheel_a5():
    model = build_wheel("A5")
    assert len(model.vertices) == 6
    assert len(model.punctures) == 6
    assert not model.has_center
    radii = [math.hypot(v.x, v.y) for v in model.vertices]
    assert all(abs(r - 1) < 1e-12 for r in radii)


def test_build_wheel_d5():
    model = build_wheel("D5")
    assert len(model.punctures) == 9  # octagon + center
    assert model.has_center
    assert sorted(v.label for v in model.vertices) == [-4, -3, -2, -1, 0, 1, 2, 3, 4]


def test_build_wheel_e6():
    model = build_wheel("E6")
    assert model.vertices == ()
    assert (model.orbit_count, model.orbit_steps, model.signed_orbits) == (6, 12, False)
    e8 = build_wheel("E8")
    assert (e8.orbit_count, e8.orbit_steps, e8.signed_orbits) == (8, 15, True)


def test_a_segment_class_formula():
    assert segment_class("A5", (2, 4)) == (0, 1, 1, 0, 0)
    assert segment_class("A5", (4, 2)) == (0, -1, -1, 0, 0)
    assert segment_class("A3", (1, 4)) == (1, 1, 1)
    with pytest.raises(ValueError):
        segment_class("A5", (2, 2))
    with pytest.raises(ValueError):
        segment_class("A5", (0, 3))


def test_a_concatenation_is_addition():
    t = make_type("A6")
    for i, j, l in [(1, 3, 6), (2, 5, 4), (7, 2, 5)]:
        left = np.array(segment_class(t, (i, j)))
        right = np.array(segment_class(t, (j, l)))
        total = np.array(segment_class(t, (i, l)))
        assert np.array_equal(left + right, total)


def test_d_spoke_patterns():
    t = make_type("D5")
    # spokes out of the center realize the (1,0,1..) and (0,1,1..) patterns
    assert segment_class(t, (0, 1)) == (1, 0, 0, 0, 0)
    assert segment_class(t, (-1, 0)) == (0, 1, 0, 0, 0)
    assert segment_class(t, (0, 3)) == (1, 0, 1, 1, 0)
    assert segment_class(t, (-3, 0)) == (0, 1, 1, 1, 0)
    # boundary edge on the chain
    assert segment_class(t, (1, 2)) == (0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        segment_class(t, (1, -1))  # antipodal, blocked by the center
    with pytest.raises(ValueError):
        segment_class(t, (5, 1))  # no such vertex


def test_d_parallel_spokes_not_equivalent():
    # var spokes through the center: same vector, different classes
    t = make_type("D4")
    assert segment_class(t, (0, 1)) != segment_class(t, (-1, 0))
    # while parallel chords with equal orientation are equivalent
    assert segment_class(t, (1, 2)) == segment_class(t, (-2, -1))


def test_a_classes_are_singletons():
    classes = enumerate_classes("A5")
    assert len(classes) == 30
    assert all(len(c.segments) == 1 for c in classes)


def test_d5_class_counts():
    classes = enumerate_classes("D5")
    assert len(classes) == 40
    counts = {"i": 0, "ii": 0, "iii": 0, "iv": 0}
    for c in classes:
        kind = {(0, 0): "i", (1, 1): "ii", (1, 0): "iii", (0, 1): "iv"}[
            (abs(c.root[0]), abs(c.root[1]))]
        counts[kind] += 1
        assert len(c.segments) == (2 if kind in ("i", "ii") else 1)
    assert counts == {"i": 12, "ii": 12, "iii": 8, "iv": 8}


def test_d5_segments_in_midpoint_order():
    # The midpoint of the chord -4 -> 2 lies exactly on the ray through v_1.
    segments = {c.root: c.segments for c in enumerate_classes("D5")}
    assert segments[(1, 1, 2, 1, 1)] == ((-4, 2), (-2, 4))
    assert segments[(-1, -1, -2, -1, -1)] == ((2, -4), (4, -2))


@pytest.mark.parametrize("k", range(3, 13))
def test_d_segments_sorted_by_exact_midpoint_angle(k):
    """Representatives ascend in midpoint angle, an exact multiple of pi/n."""
    n = 2 * k - 2
    vertices = build_wheel(f"D{k}").vertices  # boundary positions 0 .. n-1, center last
    position = {v.label: m for m, v in enumerate(vertices)}

    def key(seg):
        p, q = (position[x] for x in seg)
        if n in (p, q):
            return 2 * (p + q - n)
        return (p + q + n * (abs(p - q) > n / 2)) % (2 * n)

    for cls in enumerate_classes(f"D{k}"):
        keys = [key(s) for s in cls.segments]
        assert keys == sorted(set(keys))
        for seg, exact in zip(cls.segments, keys):
            a, b = (vertices[position[x]] for x in seg)
            off = (math.atan2(a.y + b.y, a.x + b.x) - exact * math.pi / n) % (2 * math.pi)
            assert min(off, 2 * math.pi - off) < 1e-9


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_e_classes_cover_roots(label):
    t = make_type(label)
    classes = enumerate_classes(t)
    assert len(classes) == t.root_count
    assert all(len(c.segments) == 1 for c in classes)


def test_e8_orbit_structure():
    # 16 signed orbits x 15 steps
    classes = enumerate_classes("E8")
    labels = {c.segments[0] for c in classes}
    assert len(labels) == 240
    assert {(j, s) for j, _, s in labels} == {(j, s) for j in range(1, 9) for s in (1, -1)}


@pytest.mark.parametrize("label", ["A4", "A5", "A6"])
def test_a_monodromy_rotates_and_reverses(label):
    t = make_type(label)
    M = monodromy_matrix(t)
    n = t.rank + 1

    def rot(i):
        return i % n + 1

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            image = M @ np.array(segment_class(t, (i, j)))
            assert segment_class(t, (rot(j), rot(i))) == tuple(int(x) for x in image)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_d_monodromy_is_k_step_rotation(k):
    t = make_type(f"D{k}")
    M = monodromy_matrix(t)
    model = build_wheel(t)
    boundary = [v.label for v in model.vertices if v.label != 0]

    def rot(label):
        if label == 0:
            return 0
        m = boundary.index(label)
        return boundary[(m + k) % (2 * k - 2)]

    for c in enumerate_classes(t):
        src, dst = c.segments[0]
        image = M @ np.array(c.root)
        assert segment_class(t, (rot(src), rot(dst))) == tuple(int(x) for x in image)


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_e_label_step_is_monodromy(label):
    t = make_type(label)
    M = monodromy_matrix(t)
    model = build_wheel(t)
    for j in (1, t.rank):
        for m in range(model.orbit_steps):
            cur = segment_class(t, (j, m, 1))
            nxt = segment_class(t, (j, (m + 1) % model.orbit_steps, 1))
            assert tuple(int(x) for x in (M @ np.array(cur))) == nxt


def _summable_pairs(t):
    """Every ordered pair (a, b) of root indices whose sum is a root."""
    rs = enumerate_roots(t)
    X = rs.coords
    return [(a, b) for a in range(len(rs)) for b in range(len(rs))
            if tuple(int(x) for x in (X[a] + X[b])) in rs.index]


@pytest.mark.parametrize("k", range(3, 13))
def test_d_sign_rule_matches_algebra(k):
    t = make_type(f"D{k}")
    rs = enumerate_roots(t)
    signs = d_sign_pairs(t)
    pairs = _summable_pairs(t)
    assert pairs
    assert np.count_nonzero(signs) == len(pairs)
    for a, b in pairs:
        assert signs[a, b] == n_sign(t, rs.roots[a], rs.roots[b])
    a, b = pairs[len(pairs) // 2]
    assert d_geometric_sign(t, rs.roots[a], rs.roots[b]) == signs[a, b]


def _float_reference_sign(t, positions, classes, a, b):
    """The floating-point planar rule: cross products with a 1e-9 guard.

    The smallest nonzero cross product among chords of the D3..D8 wheels is
    about 1e-1, so the guard is sound there and only there.
    """
    guard = 1e-9

    def orientation(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    def contains_origin(tri):
        if 0 in tri:
            return False
        pts = [positions[v] for v in tri]
        signs = []
        for i in range(3):
            s = orientation(pts[i], pts[(i + 1) % 3], (0.0, 0.0))
            assert abs(s) > guard
            signs.append(s > 0)
        return signs[0] == signs[1] == signs[2]

    results = set()
    for ra in classes[a]:
        for rb in classes[b]:
            if ra[1] == rb[0]:
                tri = (ra[0], ra[1], rb[1])
            elif rb[1] == ra[0]:
                tri = (rb[0], rb[1], ra[1])
            else:
                continue
            va = [positions[ra[1]][i] - positions[ra[0]][i] for i in (0, 1)]
            vb = [positions[rb[1]][i] - positions[rb[0]][i] for i in (0, 1)]
            cross = va[0] * vb[1] - va[1] * vb[0]
            assert abs(cross) > guard
            eps = 1 if cross > 0 else -1
            results.add(-eps if contains_origin(tri) else eps)
    assert len(results) == 1
    return results.pop()


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_d_sign_pairs_match_float_reference(k):
    t = make_type(f"D{k}")
    positions = {v.label: (v.x, v.y) for v in build_wheel(t).vertices}
    classes = [c.segments for c in enumerate_classes(t)]
    signs = d_sign_pairs(t)
    pairs = _summable_pairs(t)
    assert np.count_nonzero(signs) == len(pairs)
    for a, b in pairs:
        assert signs[a, b] == _float_reference_sign(t, positions, classes, a, b)


@pytest.mark.parametrize("func", ["pairs", "scalar"])
def test_d_sign_errors_name_type_and_roots(monkeypatch, func):
    # Every triangle made degenerate: the error names the type and a root pair.
    monkeypatch.setattr(wheel, "_triangle_sign", lambda n, x, y, z: np.zeros_like(x))
    with pytest.raises(RuntimeError, match=r"D4: degenerate wheel triangle .* for \(.*\), \("):
        if func == "pairs":
            d_sign_pairs("D4")
        else:
            d_geometric_sign("D4", (1, 0, 0, 0), (0, 0, 1, 0))


def test_d_sign_pairs_inconsistent_signs_named(monkeypatch):
    real = wheel._triangle_sign
    # Flip every other triangle: some pair with two concatenations disagrees.
    monkeypatch.setattr(wheel, "_triangle_sign",
                        lambda n, x, y, z: real(n, x, y, z) * (1 - 2 * (np.arange(len(x)) % 2)))
    with pytest.raises(RuntimeError, match=r"D5: inconsistent planar signs for \("):
        d_sign_pairs("D5")


def test_d_sign_antisymmetric_example():
    t = make_type("D4")
    rs = enumerate_roots(t)
    X = rs.coords
    for a in range(len(rs)):
        for b in range(len(rs)):
            total = tuple(int(x) for x in (X[a] + X[b]))
            if total in rs.index:
                assert d_geometric_sign(t, rs.roots[a], rs.roots[b]) == \
                    -d_geometric_sign(t, rs.roots[b], rs.roots[a])
                return


def test_d_sign_requires_summable_roots():
    with pytest.raises(ValueError):
        d_geometric_sign("D4", (1, 0, 0, 0), (-1, 0, 0, 0))
    with pytest.raises(ValueError):
        d_geometric_sign("A4", (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        d_sign_pairs("E6")


def test_rotation_angles():
    assert rotation_angle("E6") == Fraction(7, 6)
    assert rotation_angle("E7") == Fraction(10, 9)
    assert rotation_angle("E8") == Fraction(16, 15)
    assert rotation_angle("D5") == Fraction(5, 4)
    with pytest.raises(ValueError):
        rotation_angle("A4")


def test_classes_payload_schema():
    payload = classes_payload("A2")
    assert payload["type"] == "A2"
    assert len(payload["classes"]) == 6
    for cls in payload["classes"]:
        assert set(cls) == {"root", "segments"}
        assert all(len(seg) == 2 for seg in cls["segments"])
    e6 = classes_payload("E6")
    assert all(len(seg) == 3 for cls in e6["classes"] for seg in cls["segments"])


def test_a5_monodromy_orbits_by_brute_force_on_segments():
    # Backs the frozen C05 entry for A5 without orbit_decomposition: follow
    # every oriented hexagon segment under -c, i -> j  |->  j+1 -> i+1, and
    # check each step against the monodromy matrix.
    from geomlie.verify import expected_orbit_table

    t = make_type("A5")
    M = monodromy_matrix(t)
    n = t.rank + 1
    segments = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    sizes, seen = [], set()
    for seg in segments:
        if seg in seen:
            continue
        orbit, cur = [], seg
        while cur not in orbit:
            orbit.append(cur)
            image = M @ np.array(segment_class(t, cur))
            cur = (cur[1] % n + 1, cur[0] % n + 1)
            assert segment_class(t, cur) == tuple(int(x) for x in image)
        assert cur == seg
        seen.update(orbit)
        sizes.append(len(orbit))
        assert (len(orbit) == 3) == (abs(seg[0] - seg[1]) == 3)
    assert sorted(sizes) == [3, 3, 6, 6, 6, 6]
    order, count, free = expected_orbit_table("A5", "monodromy")
    assert (order, count, free) == (6, len(sizes), False)
