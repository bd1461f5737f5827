import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("call, message", [
    (lambda: TropicalPolynomial(()), "polynomial needs at least one term"),
    (lambda: TropicalPolynomial(((V(1, 0), 0), (V(1, 0), 2))), "exponents must be pairwise distinct"),
    (lambda: dual_function(RatPolygon((V(0, 0), V(1, 0))), "convex"),
     "degenerate polygon has no dual function"),
    (lambda: dual_function(unit_triangle(), "x"), "unknown duality color 'x'"),
])
def test_polynomial_and_dual_function_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_make_fan_takes_each_direction_as_given():
    """make_fan builds each ray from its direction as given: a direction
    that is not primitive is refused by ``CurveEdge``, not reduced."""
    with pytest.raises(ValueError, match="ray direction must be primitive"):
        make_fan(((V(2, 0), 1),))


def test_curve_edges_demand_primitive_rays():
    with pytest.raises(ValueError):
        CurveEdge(V(0, 0), ray=V(2, 2))


def test_rational_vertex_positions_survive_exactly():
    f = TropicalPolynomial({V(1, 0): Fraction(1, 3), V(0, 0): 0})
    curve = nonlinearity_locus(f)
    xs = {p.x for e in curve.edges for p in (e.a,)}
    assert xs == {Fraction(-1, 3)}


# ---------------------------------------------------------------------------
# balancing against the earlier walk: one scan of every edge per vertex


def outgoing(curve, v):
    """(primitive direction, multiplicity) of every edge germ leaving v."""
    out = []
    for e in curve.edges:
        if e.is_ray:
            if e.a == v:
                out.append((e.ray, e.multiplicity))
        else:
            if e.a == v:
                out.append(((e.b - e.a).primitive(), e.multiplicity))
            elif e.b == v:
                out.append(((e.a - e.b).primitive(), e.multiplicity))
    return out


def balancing_by_vertex_scans(curve):
    for v in curve.vertices:
        total = V(0, 0)
        for d, m in outgoing(curve, v):
            total = total + d.scale(m)
        if not total.is_zero():
            return False
    return True


def outcome(check, curve):
    try:
        return check(curve)
    except ValueError as exc:
        return str(exc)


halves = st.integers(min_value=-3, max_value=3).map(lambda k: Fraction(k, 2))
points = st.builds(V, halves, halves)
DIRECTIONS = [V(1, 0), V(0, 1), V(-1, 0), V(0, -1), V(1, 1), V(-1, -1), V(1, -2), V(-2, 1)]


@st.composite
def random_curves(draw):
    """Segments and rays of multiplicity 1-3 on a small pool of points:
    repeated vertices, listed vertices no edge ends at, edge ends that are
    not listed, sometimes a zero-length segment; about half the time each
    vertex is then closed with a balancing ray."""
    pool = draw(st.lists(points, min_size=1, max_size=5))
    end = st.one_of(st.sampled_from(pool), points)
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        a, m = draw(end), draw(st.integers(min_value=1, max_value=3))
        if draw(st.booleans()):
            edges.append(CurveEdge(a, ray=draw(st.sampled_from(DIRECTIONS)), multiplicity=m))
        else:
            b = a if draw(st.integers(min_value=0, max_value=9)) == 0 else draw(end)
            edges.append(CurveEdge(a, b, multiplicity=m))
    vertices = draw(st.lists(st.sampled_from(pool), max_size=6))
    curve = TropicalCurve(vertices, edges)
    if draw(st.booleans()):
        for v in sorted(set(vertices)):
            try:
                germs = outgoing(curve, v)
            except ValueError:
                continue
            total = V(0, 0)
            for d, m in germs:
                total = total - d.scale(m)
            if not total.is_zero():
                k = math.gcd(int(total.x), int(total.y))
                edges.append(CurveEdge(v, ray=total.primitive(), multiplicity=k))
        curve = TropicalCurve(vertices, edges)
    return curve


@given(random_curves())
def test_balancing_agrees_with_the_vertex_scan_oracle(curve):
    assert outcome(check_balancing, curve) == outcome(balancing_by_vertex_scans, curve)


def test_balancing_raises_at_a_zero_length_segment_only_when_its_vertex_is_reached():
    o, p = V(0, 0), V(1, 0)
    stub = CurveEdge(p, p)
    bent = CurveEdge(o, ray=V(0, 1))
    assert not check_balancing(TropicalCurve((o, p), (bent, stub)))
    assert check_balancing(TropicalCurve((), (stub,)))
    with pytest.raises(ValueError, match="zero vector"):
        check_balancing(TropicalCurve((p, o), (bent, stub)))


# ---------------------------------------------------------------------------
# the locus against the earlier emission: witness and pieces in four cases


def locus_by_cases(phi):
    """The earlier `nonlinearity_locus`, with a case per pair of bounds."""
    terms = phi.terms
    if len(terms) == 1:
        return TropicalCurve((), ())
    den = 1
    for a, _ in terms:
        den = math.lcm(den, a.x.denominator, a.y.denominator)
    vertices: set = set()
    edges = []
    n = len(terms)
    for i in range(n):
        for j in range(i + 1, n):
            (ai, ci), (aj, cj) = terms[i], terms[j]
            u = ai - aj
            if u.is_zero():
                continue
            p0 = u.scale(Fraction(cj - ci) / u.dot(u))
            d = u.rot90().primitive()
            lo, hi = None, None
            empty = False
            for k in range(n):
                if k in (i, j):
                    continue
                ak, ck = terms[k]
                w = ai - ak
                slope = w.dot(d)
                const = w.dot(p0) + ci - ck
                if slope == 0:
                    if const < 0:
                        empty = True
                        break
                elif slope > 0:
                    t = -const / slope
                    if lo is None or t > lo:
                        lo = t
                else:
                    t = -const / slope
                    if hi is None or t < hi:
                        hi = t
            if empty or (lo is not None and hi is not None and lo >= hi):
                continue
            if lo is None and hi is None:
                tw = Fraction(0)
            elif lo is None:
                tw = hi - 1
            elif hi is None:
                tw = lo + 1
            else:
                tw = (lo + hi) / 2
            qw = p0 + d.scale(tw)
            val = max(c + a.dot(qw) for a, c in terms)
            active = sorted(a for a, c in terms if c + a.dot(qw) == val)
            if (ai, aj) != (active[0], active[-1]):
                continue
            diff = (active[-1] - active[0]).scale(den)
            mult = math.gcd(abs(int(diff.x)), abs(int(diff.y)))
            if lo is None and hi is None:
                vertices.add(p0)
                edges.append(CurveEdge(p0, ray=d, multiplicity=mult))
                edges.append(CurveEdge(p0, ray=-d, multiplicity=mult))
            elif lo is None:
                v = p0 + d.scale(hi)
                vertices.add(v)
                edges.append(CurveEdge(v, ray=-d, multiplicity=mult))
            elif hi is None:
                v = p0 + d.scale(lo)
                vertices.add(v)
                edges.append(CurveEdge(v, ray=d, multiplicity=mult))
            else:
                va, vb = p0 + d.scale(lo), p0 + d.scale(hi)
                vertices.update((va, vb))
                edges.append(CurveEdge(va, vb, multiplicity=mult))
    return TropicalCurve(tuple(sorted(vertices)), tuple(edges))


thirds = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@st.composite
def random_polynomials(draw):
    """1-7 terms: exponents with coordinates k/m (|k| <= 4, m <= 3) or, a
    third of the time, on one line through such points; coefficients k/m
    or zero."""
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        slope, offset = draw(thirds), draw(thirds)
        exponent = thirds.map(lambda t: V(t, slope * t + offset))
    else:
        exponent = st.builds(V, thirds, thirds)
    coefficient = st.one_of(st.just(Fraction(0)), thirds)
    terms = draw(st.dictionaries(exponent, coefficient, min_size=1, max_size=7))
    return TropicalPolynomial(terms)


@settings(max_examples=300, deadline=None)
@given(random_polynomials())
def test_locus_agrees_with_the_case_by_case_oracle(phi):
    got, want = nonlinearity_locus(phi), locus_by_cases(phi)
    assert got.vertices == want.vertices
    assert got.edges == want.edges
