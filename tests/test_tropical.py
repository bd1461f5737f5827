from fractions import Fraction

import pytest

from tropdimer.lattice import RatPolygon, UnimodularMap, Vec2, dilate, unit_triangle
from tropdimer.tropical import (
    CurveEdge,
    TropicalCurve,
    TropicalPolynomial,
    check_balancing,
    dual_function,
    fan_equal,
    genus_degree,
    genus_of,
    make_fan,
    nonlinearity_locus,
)

V = Vec2


def line_fan():
    return make_fan(((V(-1, 0), 1), (V(0, -1), 1), (V(1, 1), 1)))


def test_tropical_line_locus():
    # max(x, y, 0): three rays from the origin.
    f = TropicalPolynomial({V(1, 0): 0, V(0, 1): 0, V(0, 0): 0})
    curve = nonlinearity_locus(f)
    assert len(curve.vertices) == 1 and curve.vertices[0] == V(0, 0)
    assert fan_equal(curve, line_fan())
    assert check_balancing(curve)


def test_conic_locus_has_bounded_edges():
    # a smooth conic: the unit-triangle subdivision of the degree-2
    # triangle gives 4 vertices, 3 bounded edges and 6 rays
    f = TropicalPolynomial(
        {V(0, 0): 0, V(1, 0): 1, V(0, 1): 1, V(2, 0): 0, V(1, 1): 1, V(0, 2): 0}
    )
    curve = nonlinearity_locus(f)
    assert curve.vertices == (V(-1, -1), V(0, 0), V(0, 1), V(1, 0))
    segments = sorted(tuple(sorted((e.a, e.b))) for e in curve.edges if not e.is_ray)
    assert segments == [(V(-1, -1), V(0, 0)), (V(0, 0), V(0, 1)), (V(0, 0), V(1, 0))]
    rays = sorted((e.a, e.ray) for e in curve.edges if e.is_ray)
    assert rays == [
        (V(-1, -1), V(-1, 0)),
        (V(-1, -1), V(0, -1)),
        (V(0, 1), V(-1, 0)),
        (V(0, 1), V(1, 1)),
        (V(1, 0), V(0, -1)),
        (V(1, 0), V(1, 1)),
    ]
    assert all(e.multiplicity == 1 for e in curve.edges)
    assert check_balancing(curve)


def test_dual_functions_agree_on_fans():
    # convex dual of a triangle pairs with the concave dual of its point
    # reflection; that is how the two polytope colors fit together.
    tri = dilate(unit_triangle(), 2)
    neg = RatPolygon(tuple(-v for v in tri.vertices))
    convex = nonlinearity_locus(dual_function(tri, "convex"))
    concave = nonlinearity_locus(dual_function(neg, "concave"))
    assert fan_equal(convex, concave)


def test_edge_multiplicity_from_dual_length():
    # max(2x, 0) breaks along the y-axis with multiplicity 2.
    f = TropicalPolynomial({V(2, 0): 0, V(0, 0): 0})
    curve = nonlinearity_locus(f)
    assert sorted(e.multiplicity for e in curve.edges) == [2, 2]


def test_balancing_detects_a_broken_vertex():
    o = V(0, 0)
    bent = TropicalCurve((o,), (CurveEdge(o, ray=V(1, 0)), CurveEdge(o, ray=V(0, 1))))
    assert not check_balancing(bent)


def test_fan_equal_rejects_non_fans():
    seg = TropicalCurve((V(0, 0), V(1, 0)), (CurveEdge(V(0, 0), b=V(1, 0)),))
    with pytest.raises(ValueError, match="non-fan input"):
        fan_equal(seg, line_fan())


def test_fan_equal_is_translation_blind_but_direction_exact():
    shifted = TropicalCurve(
        (V(3, -2),),
        (
            CurveEdge(V(3, -2), ray=V(-1, 0)),
            CurveEdge(V(3, -2), ray=V(0, -1)),
            CurveEdge(V(3, -2), ray=V(1, 1)),
        ),
    )
    assert fan_equal(shifted, line_fan())
    m = UnimodularMap(0, -1, 1, 0)
    rotated = make_fan(tuple((m.apply_vector(r), 1) for r in (V(-1, 0), V(0, -1), V(1, 1))))
    assert not fan_equal(rotated, line_fan())


@pytest.mark.parametrize("d,expected", [(1, 0), (2, 0), (3, 1), (4, 3), (5, 6)])
def test_genus_degree(d, expected):
    assert genus_degree(d) == expected


def test_genus_of_dilated_triangle_matches_formula():
    for d in range(1, 8):
        assert genus_of(dilate(unit_triangle(), d)) == (d - 1) * (d - 2) // 2


def test_genus_of_a_huge_triangle_is_exact():
    d = 10**6
    assert genus_of(dilate(unit_triangle(), d)) == (d - 1) * (d - 2) // 2


def test_genus_of_reads_a_clockwise_polygon_like_its_reverse():
    ccw = (V(0, 0), V(4, 0), V(4, 2), V(1, 3))
    assert genus_of(RatPolygon(ccw[::-1])) == genus_of(RatPolygon(ccw)) == 6  # Pick: 9 - 8 / 2 + 1


def test_genus_of_needs_a_lattice_polygon_and_is_zero_when_degenerate():
    with pytest.raises(ValueError, match="lattice polygon required"):
        genus_of(dilate(unit_triangle(), Fraction(1, 2)))
    assert genus_of(RatPolygon((V(0, 0), V(5, 0)))) == 0
    assert genus_of(RatPolygon((V(0, 0), V(2, 0), V(4, 0)))) == 0


def test_curve_edges_demand_primitive_rays():
    with pytest.raises(ValueError):
        CurveEdge(V(0, 0), ray=V(2, 2))


def test_rational_vertex_positions_survive_exactly():
    f = TropicalPolynomial({V(1, 0): Fraction(1, 3), V(0, 0): 0})
    curve = nonlinearity_locus(f)
    xs = {p.x for e in curve.edges for p in (e.a,)}
    assert xs == {Fraction(-1, 3)}
