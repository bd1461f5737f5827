import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropdimer.lattice import (
    H1Class,
    RatPolygon,
    UnimodularMap,
    Vec2,
    angle_cmp,
    angle_key,
    convex_hull,
    dilate,
    interior_lattice_count,
    on_ray,
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


def rational_primitive(v: Vec2) -> Vec2:
    """The primitive vector by clearing denominators, the path every vector
    took before integral ones took one gcd; kept as the oracle."""
    den = math.lcm(v.x.denominator, v.y.denominator)
    nx, ny = int(v.x * den), int(v.y * den)
    g = math.gcd(abs(nx), abs(ny))
    return Vec2(Fraction(nx, g), Fraction(ny, g))


big = st.integers(min_value=-(10**40), max_value=10**40)
entries = st.one_of(ints, big, st.just(0), rationals, st.fractions(max_denominator=10**12))


@settings(max_examples=300, deadline=None)
@given(entries, entries)
def test_primitive_agrees_with_the_rational_path(x, y):
    """Negative, axis-parallel, large and non-integral entries alike; the
    zero vector is still refused."""
    v = Vec2(x, y)
    if v.is_zero():
        with pytest.raises(ValueError, match="^zero vector has no primitive direction$"):
            v.primitive()
        return
    p = v.primitive()
    assert p == rational_primitive(v)
    assert p.x.denominator == p.y.denominator == 1
    assert math.gcd(p.x.numerator, p.y.numerator) == 1


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


def strictly_convex_by_pairs(points) -> bool:
    """The earlier O(k^2) test, kept as the oracle of `strictly_convex`:
    every point strictly left of every edge it is not an end of."""
    n = len(points)
    for i in range(n):
        (ax, ay), (bx, by) = points[i], points[(i + 1) % n]
        for k in range(n):
            if k != i and k != (i + 1) % n:
                cx, cy = points[k]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
                    return False
    return True


@st.composite
def polygon_candidates(draw):
    """1 to 9 points: random ones, or the vertices of a hull read with a
    step w from a random start (a star polygon {k/w} when w is prime to k),
    in ints or in Fractions."""
    points = draw(st.lists(st.tuples(ints, ints), min_size=1, max_size=9))
    hull = convex_hull(points)
    if len(hull) >= 3 and draw(st.booleans()):
        k = len(hull)
        w, start = draw(st.integers(1, k - 1)), draw(st.integers(0, k - 1))
        points = [hull[(start + i * w) % k] for i in range(k)]
    if draw(st.booleans()):
        points = [(Fraction(x, 3), Fraction(y, 3)) for x, y in points]
    return points


@settings(max_examples=500, deadline=None)
@given(polygon_candidates())
def test_strictly_convex_agrees_with_the_pairwise_oracle(points):
    assert strictly_convex(points) == strictly_convex_by_pairs(points)


@pytest.mark.parametrize("k", range(3, 14))
def test_strictly_convex_refuses_star_polygons(k):
    # k points in convex position, read with every step w prime to k: only
    # w = 1 is the convex polygon, w = k - 1 the same one clockwise
    ring = [
        (round(1000 * math.cos(2 * math.pi * i / k)), round(1000 * math.sin(2 * math.pi * i / k)))
        for i in range(k)
    ]
    for w in range(1, k):
        if math.gcd(k, w) == 1:
            star = [ring[i * w % k] for i in range(k)]
            for points in (star, [(Fraction(x, 7), Fraction(y, 7)) for x, y in star]):
                assert strictly_convex(points) is strictly_convex_by_pairs(points) is (w == 1)


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


@given(st.data(), ints, ints)
def test_apply_class_on_integers_matches_the_vector_route(data, a, b):
    # random products of shears and sign flips
    flips = [UnimodularMap(-1, 0, 0, 1), UnimodularMap(1, 0, 0, -1), UnimodularMap(-1, 0, 0, -1)]
    m = UnimodularMap.identity()
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        k = data.draw(st.integers(min_value=-3, max_value=3))
        shears = [UnimodularMap(1, k, 0, 1), UnimodularMap(1, 0, k, 1)]
        m = m.compose(data.draw(st.sampled_from(shears + flips)))
    w = m.apply_vector(Vec2(a, b))
    image = m.apply_class(H1Class(a, b))
    assert image == H1Class(int(w.x), int(w.y))
    assert type(image.a) is int and type(image.b) is int


@given(vectors, vectors.filter(lambda d: not d.is_zero()), rationals)
def test_on_ray_holds_from_its_start_along_d_only(a, d, k):
    k = abs(k)
    assert on_ray(a, a, d)
    assert on_ray(a + d.scale(k), a, d)
    assert not on_ray(a + d.scale(k) + d.rot90(), a, d)  # off the line
    if k:
        assert not on_ray(a - d.scale(k), a, d)  # behind the start


# ---------------------------------------------------------------------------
# the records are plain classes with value semantics


def test_records_construct_positionally_and_by_keyword_with_their_defaults():
    t = Vec2(Fraction(1, 2), 3)
    assert Vec2(x=1, y=Fraction(4, 2)) == Vec2(1, 2)
    assert isinstance(Vec2(1, 2).x, Fraction)  # ints are kept as Fractions
    assert H1Class(a=1, b=-2) == H1Class(1, -2)
    assert UnimodularMap(0, 1, 1, 0).t == Vec2(0, 0)
    assert UnimodularMap(0, 1, 1, 0, t) == UnimodularMap(a=0, b=1, c=1, d=0, t=t)
    assert RatPolygon(vertices=[Vec2(0, 0)]).vertices == (Vec2(0, 0),)
    with pytest.raises(ValueError, match="not unimodular"):
        UnimodularMap(2, 0, 0, 1)
    with pytest.raises(ValueError, match="empty point set"):
        RatPolygon(())


def test_equal_records_hash_alike():
    pairs = [
        (Vec2(Fraction(2, 4), 1), Vec2(Fraction(1, 2), Fraction(3, 3))),
        (H1Class(2, -1), H1Class(2, -1)),
        (unit_triangle(), RatPolygon([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)])),
        (UnimodularMap(1, 1, 0, 1, Vec2(1, 0)), UnimodularMap(1, 1, 0, 1, Vec2(1, 0))),
    ]
    for a, b in pairs:
        assert a == b and not a != b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, s) for s in type(a).__slots__))
    assert UnimodularMap(1, 1, 0, 1) != UnimodularMap(1, 1, 0, 1, Vec2(1, 0))


def test_records_of_two_types_with_the_same_values_differ():
    assert Vec2(1, 2) != H1Class(1, 2)
    assert H1Class(1, 2) != Vec2(1, 2)
    assert Vec2(1, 2) != (1, 2)
    with pytest.raises(TypeError):
        Vec2(1, 2) < H1Class(1, 2)


@given(vectors, vectors)
def test_vec2_compares_like_its_field_tuple(u, v):
    a, b = (u.x, u.y), (v.x, v.y)
    assert (u < v, u <= v, u > v, u >= v, u == v) == (a < b, a <= b, a > b, a >= b, a == b)


@given(st.lists(vectors, max_size=8), st.lists(st.tuples(ints, ints), max_size=8))
def test_vec2_and_h1class_sort_like_their_field_tuples(vs, pairs):
    assert [(v.x, v.y) for v in sorted(vs)] == sorted((v.x, v.y) for v in vs)
    classes = [H1Class(a, b) for a, b in pairs]
    assert [(c.a, c.b) for c in sorted(classes)] == sorted(pairs)
    assert [(c.a, c.b) for c in sorted(classes, reverse=True)] == sorted(pairs, reverse=True)
