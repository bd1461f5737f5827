import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropdimer.lattice import (
    RatPolygon,
    UnimodularMap,
    Vec2,
    angle_cmp,
    angle_key,
    convex_hull,
    dilate,
    interior_lattice_count,
    strictly_convex,
    unit_triangle,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
vectors = st.builds(Vec2, rationals, rationals)
ints = st.integers(min_value=-8, max_value=8)


def test_rot90_is_counterclockwise():
    assert Vec2(1, 0).rot90() == Vec2(0, 1)
    assert Vec2(0, 1).rot90() == Vec2(-1, 0)


@given(vectors)
def test_rot90_order_four(v):
    assert v.rot90().rot90().rot90().rot90() == v


def test_primitive():
    assert Vec2(4, -6).primitive() == Vec2(2, -3)
    assert Vec2(Fraction(1, 2), Fraction(1, 2)).primitive() == Vec2(1, 1)
    with pytest.raises(ValueError):
        Vec2(0, 0).primitive()


def test_convex_hull_collapses_interior_points():
    pts = [(0, 0), (4, 0), (0, 4), (2, 2), (1, 1)]
    assert set(convex_hull(pts)) == {(0, 0), (4, 0), (0, 4)}


def test_convex_hull_empty():
    with pytest.raises(ValueError, match="empty point set"):
        convex_hull([])


def integer_edges(points):
    """The edges (x0, y0, x1, y1) of a polygon given by its integer vertices."""
    return [(*a, *b) for a, b in zip(points, points[1:] + points[:1])]


def interior_points_by_scan(points, n):
    """The points of n Z^2 strictly inside a convex counterclockwise integer
    polygon, by a scan of its bounding box: the oracle of
    `interior_lattice_count`, quadratic in the polygon's size."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    found = []
    for ix in range(min(xs) // n + 1, -(-max(xs) // n)):
        for iy in range(min(ys) // n + 1, -(-max(ys) // n)):
            if all(
                (x1 - x0) * (n * iy - y0) - (y1 - y0) * (n * ix - x0) > 0
                for x0, y0, x1, y1 in integer_edges(points)
            ):
                found.append((ix, iy))
    return found


def test_interior_lattice_points_of_dilated_triangle():
    tri = dilate(unit_triangle(), 4)
    points = [(int(v.x), int(v.y)) for v in tri.vertices]
    assert interior_lattice_count(integer_edges(points), 1) == 3


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=3, max_size=12),
    st.integers(min_value=1, max_value=6),
)
def test_interior_lattice_count_matches_the_box_scan(points, n):
    hull = list(convex_hull(points))
    assume(len(hull) >= 3)
    assert interior_lattice_count(integer_edges(hull), n) == len(interior_points_by_scan(hull, n))


@given(st.lists(st.tuples(ints, ints), min_size=3, max_size=8))
def test_strictly_convex_accepts_hulls_in_integers_and_fractions(points):
    hull = convex_hull(points)
    assume(len(hull) >= 3)
    assert strictly_convex(hull)
    assert strictly_convex([(Fraction(x, 3), Fraction(y, 3)) for x, y in hull])
    assert not strictly_convex(hull[::-1])


def test_strictly_convex_refuses_a_collinear_corner():
    half = Fraction(1, 2)
    assert strictly_convex([(0, 0), (half, 0), (0, half)])
    assert not strictly_convex([(0, 0), (half, 0), (1, 0), (0, half)])


def test_signed_area_sees_orientation():
    ccw = RatPolygon((Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)))
    cw = RatPolygon((Vec2(0, 0), Vec2(0, 1), Vec2(1, 0)))
    assert ccw.area2() == 1
    assert cw.area2() == -1


@given(st.lists(vectors.filter(lambda v: not v.is_zero()), max_size=8))
def test_angle_key_orders_like_the_cross_product(vs):
    def half(v):
        return 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1

    def cmp(u, w):
        if half(u) != half(w):
            return half(u) - half(w)
        c = u.cross(w)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    assert sorted(vs, key=angle_key) == sorted(vs, key=functools.cmp_to_key(cmp))
    assert all(angle_cmp((u.x, u.y), (w.x, w.y)) == cmp(u, w) for u in vs for w in vs)


def _random_unimodular(data):
    m = UnimodularMap.identity()
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        k = data.draw(st.integers(min_value=-3, max_value=3))
        upper = data.draw(st.booleans())
        m = m.compose(UnimodularMap(1, k, 0, 1) if upper else UnimodularMap(1, 0, k, 1))
    return m


@given(st.data(), vectors)
def test_unimodular_inverse_round_trip(data, v):
    m = _random_unimodular(data)
    assert m.inverse().apply(m.apply(v)) == v
    assert m.a * m.d - m.b * m.c == 1


@given(st.data(), vectors, vectors)
def test_unimodular_compose_is_application_order(data, u, v):
    m = _random_unimodular(data)
    n = _random_unimodular(data)
    assert m.compose(n).apply(v) == m.apply(n.apply(v))
