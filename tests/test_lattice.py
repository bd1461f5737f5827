import functools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropdimer.lattice import (
    RatPolygon,
    UnimodularMap,
    Vec2,
    angle_key,
    convex_hull,
    dilate,
    interior_lattice_points,
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


def test_interior_lattice_points_of_dilated_triangle():
    tri = dilate(unit_triangle(), 4)
    assert len(interior_lattice_points(tri)) == 3


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
