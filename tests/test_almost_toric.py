from fractions import Fraction

import pytest

from tropdimer.almost_toric import (
    BaseDiagram,
    Chart,
    ChartedSection,
    CurveOnBase,
    Node,
    admissible,
    an_chain_curve,
    build_inner_torus,
    build_outer_torus,
    curves_equal,
    local_model,
    nodal_trade,
    nodal_trade_exchange,
    trade_all_corners,
    validate_section,
)
from tropdimer.catalog import DEL_PEZZO_FANS, MOMENT_POLYGONS, SEED_FAN, load
from tropdimer.dimer import validate
from tropdimer.lattice import RatPolygon, UnimodularMap, Vec2
from tropdimer.tropical import TropicalPolynomial, check_balancing

V = Vec2
F = Fraction


def square(lo_x, hi_x, lo_y, hi_y):
    return RatPolygon((V(lo_x, lo_y), V(hi_x, lo_y), V(hi_x, hi_y), V(lo_x, hi_y)))


@pytest.fixture
def cp2():
    return trade_all_corners(BaseDiagram(MOMENT_POLYGONS["cp2"]))


def test_nodal_trade_straightens_the_corner(cp2):
    # each corner's incoming boundary direction maps to the outgoing one
    # under the node monodromy, so the boundary is affine across the cut
    for node in cp2.nodes:
        m = node.monodromy()
        assert m.apply(node.position) == node.position
    assert len(cp2.nodes) == 3
    assert len(cp2.traded) == 3


def test_nodal_trade_errors():
    d = BaseDiagram(MOMENT_POLYGONS["cp2"])
    with pytest.raises(ValueError, match="non-corner index"):
        nodal_trade(d, 7)
    with pytest.raises(ValueError, match="must be positive"):
        nodal_trade(d, 0, t=0)
    traded = nodal_trade(d, 0)
    with pytest.raises(ValueError, match="already traded"):
        nodal_trade(traded, 0)


def test_outer_torus_is_admissible_but_not_attached(cp2):
    curve = build_outer_torus(cp2, F(1, 2))
    assert admissible(curve, cp2)
    assert curve.attachments == ()


def test_outer_torus_depth_bounds(cp2):
    with pytest.raises(ValueError, match="collar depth out of range"):
        build_outer_torus(cp2, F(0))
    with pytest.raises(ValueError, match="collar depth out of range"):
        build_outer_torus(cp2, F(1))


def test_inner_torus_is_balanced_and_admissible(cp2):
    curve = build_inner_torus(cp2)
    assert admissible(curve, cp2)
    assert check_balancing(curve.curve)
    assert len(curve.attachments) == len(cp2.nodes)


def test_local_exchange_round_trip():
    diagram, curve = local_model()
    once = nodal_trade_exchange(diagram, curve, 0)
    assert admissible(once, diagram)
    assert not curves_equal(once, curve)
    back = nodal_trade_exchange(diagram, once, 0)
    assert curves_equal(back, curve)


def test_three_exchanges_turn_the_outer_torus_inner(cp2):
    curve = build_outer_torus(cp2, F(1, 2))
    for i in range(len(cp2.nodes)):
        curve = nodal_trade_exchange(cp2, curve, i)
    assert curves_equal(curve, build_inner_torus(cp2))


def test_exchange_needs_an_exchange_site():
    diagram, _ = local_model()
    from tropdimer.tropical import CurveEdge, TropicalCurve

    far = CurveOnBase(
        TropicalCurve((V(5, 5),), (CurveEdge(V(5, 5), ray=V(0, 1)), CurveEdge(V(5, 5), ray=V(0, -1)))),
        (),
    )
    with pytest.raises(ValueError, match="no exchange site"):
        nodal_trade_exchange(diagram, far, 0)


def test_exchange_rejects_transverse_edges_at_the_node():
    diagram, _ = local_model()
    from tropdimer.tropical import CurveEdge, TropicalCurve

    q = diagram.nodes[0].position
    crossing = CurveOnBase(
        TropicalCurve((q,), (CurveEdge(q, ray=V(1, 0)), CurveEdge(q, ray=V(-1, 0)))),
        (),
    )
    with pytest.raises(ValueError, match="not parallel to eigenray"):
        nodal_trade_exchange(diagram, crossing, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_an_chain_is_admissible(n):
    diagram, curve = an_chain_curve(n)
    assert admissible(curve, diagram)
    assert len(curve.attachments) == n
    assert len(diagram.nodes) == n


def test_an_chain_rejects_nonpositive_length():
    with pytest.raises(ValueError, match="must be positive"):
        an_chain_curve(0)


def test_del_pezzo_catalog_is_consistent():
    names = ("cp2", "p1p1", "bl1", "bl2", "bl3")
    assert tuple(MOMENT_POLYGONS) == names
    assert tuple(DEL_PEZZO_FANS) == names
    assert tuple(SEED_FAN.values()) == names
    for polygon in MOMENT_POLYGONS.values():
        assert len(trade_all_corners(BaseDiagram(polygon)).nodes) == len(polygon.vertices)
    for seed in SEED_FAN:
        assert validate(load(seed)).ok


# --- charted sections -------------------------------------------------------


def section_with_node(phi_terms):
    node = Node(V(0, 0), V(0, 1))
    diagram = BaseDiagram(None, nodes=(node,))
    chart = Chart(square(-2, 2, -2, 2), TropicalPolynomial(phi_terms, False))
    return ChartedSection((chart,), (), diagram)


def test_section_with_invariant_covectors_validates():
    # max(0, x1): both covectors are fixed by the (0,1)-eigenray shear
    assert validate_section(section_with_node(((V(0, 0), F(0)), (V(1, 0), F(0)))))


def test_section_with_sheared_covector_fails():
    # max(0, x2): the covector (0,1) is moved by the monodromy
    assert not validate_section(section_with_node(((V(0, 0), F(0)), (V(0, 1), F(0)))))


def test_node_check_decides_the_germ_in_a_thin_wedge():
    # a wedge with its apex at the node, 1/10000 deep along the eigenray
    # (0, 1): no point node + eps (0, 1) with eps >= 1/4096 lies in it, but
    # the germ enters its interior, and the check must run there
    a = F(1, 10000)
    wedge = RatPolygon((V(0, 0), V(a, a), V(-a, a)))
    diagram = BaseDiagram(None, nodes=(Node(V(0, 0), V(0, 1)),))

    def section(phi_terms):
        return ChartedSection((Chart(wedge, TropicalPolynomial(phi_terms, False)),), (), diagram)

    # max(0, x2) ties at the node; along the germ (0, 1) wins, and the
    # monodromy moves it
    assert not validate_section(section(((V(0, 0), F(0)), (V(0, 1), F(0)))))
    assert validate_section(section(((V(0, 0), F(0)), (V(1, 0), F(0)))))


def two_chart_section():
    phi_a = TropicalPolynomial(((V(0, 0), F(0)), (V(1, 0), F(0))), False)
    phi_b = TropicalPolynomial(((V(1, 0), F(0)), (V(2, 0), F(0))), False)
    charts = (Chart(square(-2, 2, -2, 2), phi_a), Chart(square(1, 3, -2, 2), phi_b))
    return ChartedSection(charts)


def test_two_chart_overlap_compatibility():
    assert validate_section(two_chart_section())


def test_overlap_with_fractional_gradient_difference_fails():
    phi_a = TropicalPolynomial(((V(0, 0), F(0)),), False)
    phi_b = TropicalPolynomial(((V(F(1, 2), 0), F(0)),), False)
    charts = (Chart(square(-2, 2, -2, 2), phi_a), Chart(square(1, 3, -2, 2), phi_b))
    assert not validate_section(ChartedSection(charts))


def test_section_validity_is_unimodular_invariant():
    base = two_chart_section()
    m = UnimodularMap(1, 1, 0, 1, V(2, -1))
    moved = ChartedSection(
        tuple(
            Chart(
                RatPolygon(tuple(m.apply(v) for v in c.region.vertices)),
                _pull(c.phi, m),
            )
            for c in base.charts
        ),
        base.transitions,
    )
    assert validate_section(moved) == validate_section(base)


def _pull(phi, m):
    from tropdimer.almost_toric import _transform_polynomial

    return _transform_polynomial(phi, m)
