import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropdimer.almost_toric import (
    BaseDiagram,
    Chart,
    ChartedSection,
    CurveOnBase,
    Node,
    _corner_data,
    _edge_touches,
    _moved,
    admissible,
    an_chain_curve,
    build_inner_torus,
    build_outer_torus,
    curve_key,
    curves_equal,
    local_model,
    nodal_trade,
    nodal_trade_exchange,
    trade_all_corners,
    validate_section,
)
from tropdimer.catalog import DEL_PEZZO_FANS, MOMENT_POLYGONS, SEED_FAN, load
from tropdimer.dimer import validate
from tropdimer.kasteleyn import determinant, kasteleyn_matrix
from tropdimer.lattice import RatPolygon, UnimodularMap, Vec2, convex_hull
from tropdimer.mutation import compare_up_to_unimodular, seed_directions
from tropdimer.tropical import (
    CurveEdge,
    TropicalCurve,
    TropicalPolynomial,
    check_balancing,
    nonlinearity_locus,
)

V = Vec2
F = Fraction


def evaluate(phi: TropicalPolynomial, q: Vec2):
    """phi(q): the greatest term at q, negated for a concave dual."""
    m = max(c + a.dot(q) for a, c in phi.terms)
    return -m if phi.concave else m


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


def inner_torus_by_hand(diagram, s):
    """The earlier construction: each vertex's three germs summed by hand,
    leg + previous + next = 0."""
    n = len(diagram.boundary.vertices)
    by_corner = dict(diagram.traded)
    nodes = [diagram.nodes[by_corner[i]] for i in range(n)]
    frames = []
    for i in range(n):
        corner, w = _corner_data(diagram.boundary, i)
        offset = nodes[i].position - corner
        frames.append((corner, w, offset.x / w.x if w.x != 0 else offset.y / w.y))
    s = Fraction(s)
    if any(s <= t for _, _, t in frames):
        raise ValueError("inconsistent placement")
    pts = [corner + w.scale(s) for corner, w, _ in frames]
    for i in range(n):
        leg = (nodes[i].position - pts[i]).primitive()
        prev = (pts[(i - 1) % n] - pts[i]).primitive()
        nxt = (pts[(i + 1) % n] - pts[i]).primitive()
        if leg + prev + nxt != V(0, 0):
            raise ValueError("inconsistent placement")
    loop = [CurveEdge(pts[i], pts[(i + 1) % n]) for i in range(n)]
    legs = [CurveEdge(pts[i], nodes[i].position) for i in range(n)]
    attachments = tuple((n + i, by_corner[i]) for i in range(n))
    return CurveOnBase(TropicalCurve(tuple(pts), tuple(loop + legs)), attachments)


@pytest.mark.parametrize("name", list(MOMENT_POLYGONS))
def test_inner_torus_matches_the_hand_balanced_construction(name):
    diagram = trade_all_corners(BaseDiagram(MOMENT_POLYGONS[name]))
    for k in range(1, 200):
        outcomes = []
        for build in (build_inner_torus, inner_torus_by_hand):
            try:
                outcomes.append(build(diagram, F(k, 16)))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], k


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


@pytest.mark.parametrize(
    "seed,constant",
    [("cp2-seed", -3), ("p1p1-seed", 4), ("bl1-seed", -4), ("bl2-seed", -5), ("bl3-seed", 6)],
)
def test_the_seed_potential_tropicalizes_to_the_inner_torus(seed, constant):
    # the partition function over its one interior Newton point has integer
    # exponents; max(3 - depth, max over u != 0 of <u, q>) then has, mapped
    # by A^-T, the inner torus at that depth as its cycle and its legs as
    # rays, where A takes the Newton polygon's corners to the negated inward
    # edge normals of the moment polygon
    poly = determinant(kasteleyn_matrix(load(seed)))
    d = poly.denominator
    xs, ys = zip(*(a for a, _ in poly.terms))
    newton = RatPolygon(tuple(V(x, y) for x, y in convex_hull([a for a, _ in poly.terms])))
    [(cx, cy)] = [
        (x, y)
        for x in range(min(xs), max(xs) + 1, d)
        for y in range(min(ys), max(ys) + 1, d)
        if newton.contains(V(x, y), strict=True)
    ]
    exponents = {((x - cx) // d, (y - cy) // d): c for (x, y), c in poly.terms}
    assert exponents[0, 0] == constant
    moment = MOMENT_POLYGONS[SEED_FAN[seed]]
    inward = [(b - a).rot90().primitive() for a, b in moment.edges()]
    to_normals = compare_up_to_unimodular(
        convex_hull(list(exponents)), [(-int(n.x), -int(n.y)) for n in inward]
    )
    inv = to_normals.inverse()
    dual = UnimodularMap(inv.a, inv.c, inv.b, inv.d)
    diagram = trade_all_corners(BaseDiagram(moment))
    k = len(moment.vertices)
    for depth in (F(3, 2), F(2), F(5, 2), F(11, 4), F(29, 10)):
        phi = TropicalPolynomial({V(*u): 3 - depth if u == (0, 0) else 0 for u in exponents})
        locus = nonlinearity_locus(phi).edges
        torus = build_inner_torus(diagram, depth).curve.edges
        cycle = sorted(
            (*sorted((dual.apply(e.a), dual.apply(e.b))), e.multiplicity)
            for e in locus
            if not e.is_ray
        )
        assert cycle == sorted((*sorted((e.a, e.b)), e.multiplicity) for e in torus[:k])
        rays = sorted(
            (dual.apply(e.a), dual.apply_vector(e.ray), e.multiplicity) for e in locus if e.is_ray
        )
        assert rays == sorted((e.a, (e.b - e.a).primitive(), e.multiplicity) for e in torus[k:])


@pytest.mark.parametrize(
    "name,node",
    [(name, i) for name, poly in MOMENT_POLYGONS.items() for i in range(len(poly.vertices))],
)
def test_vertex_exchange_round_trip(name, node):
    diagram = trade_all_corners(BaseDiagram(MOMENT_POLYGONS[name]))
    start = build_outer_torus(diagram, F(1, 2))
    once = nodal_trade_exchange(diagram, start, node)
    assert admissible(once, diagram)
    # the vertex sits 1/2 from the node on the corner side
    assert curves_equal(nodal_trade_exchange(diagram, once, node, delta=F(1, 2)), start)
    # the default delta = 1 puts it on the corner itself
    corner = nodal_trade_exchange(diagram, once, node)
    assert MOMENT_POLYGONS[name].vertices[node] in corner.curve.vertices
    assert not admissible(corner, diagram)


def test_exchange_needs_an_exchange_site():
    diagram, _ = local_model()
    far = CurveOnBase(
        TropicalCurve((V(5, 5),), (CurveEdge(V(5, 5), ray=V(0, 1)), CurveEdge(V(5, 5), ray=V(0, -1)))),
        (),
    )
    with pytest.raises(ValueError, match="no exchange site"):
        nodal_trade_exchange(diagram, far, 0)


def test_exchange_rejects_transverse_edges_at_the_node():
    diagram, _ = local_model()
    q = diagram.nodes[0].position
    crossing = CurveOnBase(
        TropicalCurve((q,), (CurveEdge(q, ray=V(1, 0)), CurveEdge(q, ray=V(-1, 0)))),
        (),
    )
    with pytest.raises(ValueError, match="not parallel to eigenray"):
        nodal_trade_exchange(diagram, crossing, 0)


def _horizontal_ray_through_the_local_node():
    """The local model's node with a horizontal ray from (-1, 0) passing
    through it: no vertex lies at or beyond the node on its eigenray."""
    diagram, _ = local_model()
    start = V(-1, 0)
    ray = CurveOnBase(TropicalCurve((start,), (CurveEdge(start, ray=V(1, 0)),)), ())
    return nodal_trade_exchange(diagram, ray, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: Node(V(0, 0), V(0, 2)), "eigenray must be a primitive integer vector"),
    (lambda: Node(V(0, 0), V(0, 1), 0), "multiplicity must be positive"),
    (lambda: nodal_trade(BaseDiagram(None), 0), "non-corner index"),
    (lambda: build_outer_torus(BaseDiagram(None), F(1, 2)), "diagram has no boundary"),
    (lambda: build_outer_torus(BaseDiagram(MOMENT_POLYGONS["cp2"]), F(1, 2)),
     "every corner must be traded first"),
    (_horizontal_ray_through_the_local_node, "edge not parallel to eigenray"),
])
def test_base_diagram_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_trading_every_corner_of_the_boundaryless_local_model_is_refused():
    diagram, _ = local_model()
    assert diagram.boundary is None
    with pytest.raises(ValueError, match="diagram has no boundary"):
        trade_all_corners(diagram)


def test_moving_an_edge_end_keeps_the_other_fields():
    o, q = V(0, 0), V(1, 2)
    leg = CurveEdge(o, ray=V(0, 1), multiplicity=3)
    assert _moved(leg, o, q) == CurveEdge(q, ray=V(0, 1), multiplicity=3)
    assert _moved(CurveEdge(q, V(2, 2), multiplicity=2), V(2, 2), o) == CurveEdge(q, o, multiplicity=2)
    edge = CurveEdge(q, ray=V(0, 1))
    assert _moved(edge, o, q) is edge


@pytest.mark.parametrize("field, value, message", [
    ("ray", V(0, 2), "ray direction must be primitive"),
    ("multiplicity", 0, "multiplicity must be positive"),
    ("b", V(1, 1), "edge is either a segment or a ray"),
])
def test_moving_an_edge_end_rebuilds_the_edge_through_its_checks(field, value, message):
    # records take attribute assignment; the rebuilt edge still runs every check
    o = V(0, 0)
    edge = CurveEdge(o, ray=V(0, 1))
    setattr(edge, field, value)
    with pytest.raises(ValueError, match=message):
        _moved(edge, o, V(1, 0))


def test_an_chain_exchanged_twice_at_one_node_carries_the_moved_leg():
    # the first exchange undoes node 0's leg and moves its vertex onto node
    # 1; the second moves that vertex, and node 1's leg with it, past node 0
    diagram, curve = an_chain_curve(2)
    for _ in range(2):
        curve = nodal_trade_exchange(diagram, curve, 0)
    assert len(curve.curve.edges) == 9
    assert sorted(ni for _, ni in curve.attachments) == [0, 1]
    assert not admissible(curve, diagram)


# --- the value-matching oracle for the exchange ------------------------------
#
# The earlier exchange, kept as an independent oracle: it assembles each
# case by hand and re-finds every attachment by value with ``list.index``,
# which raises a bare "is not in list" error once an attached edge has
# moved.  Wherever it succeeds, or refuses with a named error, the
# exchange must agree with it.


def _oracle_retarget(edges, old, new):
    out = []
    for e in edges:
        if e.is_ray:
            out.append(CurveEdge(new, ray=e.ray, multiplicity=e.multiplicity) if e.a == old else e)
        elif e.a == old:
            out.append(CurveEdge(new, e.b, multiplicity=e.multiplicity))
        elif e.b == old:
            out.append(CurveEdge(e.a, new, multiplicity=e.multiplicity))
        else:
            out.append(e)
    return out


def _oracle_pants_directions(e):
    n = V(e.y, -e.x)
    second = n - e
    length = math.gcd(abs(int(second.x)), abs(int(second.y)))
    return (-n, 1), (second.primitive(), length)


def _oracle_reindex_attachments(curve, old_edges, new_edges, drop):
    return tuple(
        (new_edges.index(old_edges[ei]), ni) for ei, ni in curve.attachments if ei not in drop
    )


def oracle_exchange(diagram, curve, node_index, delta=1):
    node = diagram.nodes[node_index]
    e = node.eigenray
    q = node.position
    delta = F(delta)
    attached_here = {ei for ei, ni in curve.attachments if ni == node_index}
    edges = list(curve.curve.edges)
    verts = list(curve.curve.vertices)
    for leg_idx in sorted(attached_here):
        leg = edges[leg_idx]
        v = leg.a if leg.b == q else leg.b
        others = [
            (i, ed)
            for i, ed in enumerate(edges)
            if i != leg_idx and (ed.a == v or (not ed.is_ray and ed.b == v))
        ]
        (d1, m1), (d2, m2) = _oracle_pants_directions(e)
        pants = sorted([(d1.primitive(), m1 * leg.multiplicity), (d2, m2 * leg.multiplicity)])
        germs = sorted((ed.ray, ed.multiplicity) for _, ed in others if ed.is_ray)
        if len(others) == 2 and germs == pants:
            dropped = {j for j, _ in others}
            keep = [ed for i, ed in enumerate(edges) if i != leg_idx and i not in dropped]
            m = leg.multiplicity
            new_edges = keep + [
                CurveEdge(q, ray=e, multiplicity=m),
                CurveEdge(q, ray=-e, multiplicity=m),
            ]
            new_verts = [w for w in verts if w != v] + [q]
            new_attach = _oracle_reindex_attachments(curve, edges, new_edges, {leg_idx})
            return CurveOnBase(
                TropicalCurve(tuple(sorted(set(new_verts))), tuple(new_edges)), new_attach
            )
        keep = [ed for i, ed in enumerate(edges) if i != leg_idx]
        target = q + e.scale(delta)
        new_edges = _oracle_retarget(keep, v, target)
        new_verts = [target if w == v else w for w in verts]
        new_attach = _oracle_reindex_attachments(curve, edges, new_edges, {leg_idx})
        return CurveOnBase(TropicalCurve(tuple(new_verts), tuple(new_edges)), new_attach)
    if q in verts:
        incident = [
            (i, ed) for i, ed in enumerate(edges) if ed.a == q or (not ed.is_ray and ed.b == q)
        ]
        for _, ed in incident:
            d = ed.ray if ed.is_ray else (ed.b - ed.a).primitive()
            if d.cross(e) != 0:
                raise ValueError("edge not parallel to eigenray")
        m = incident[0][1].multiplicity
        v = q - e.scale(delta)
        dropped = {i for i, _ in incident}
        keep = [ed for i, ed in enumerate(edges) if i not in dropped]
        (d1, m1), (d2, m2) = _oracle_pants_directions(e)
        new_edges = keep + [
            CurveEdge(v, ray=d1.primitive(), multiplicity=m1 * m),
            CurveEdge(v, ray=d2, multiplicity=m2 * m),
            CurveEdge(v, q, multiplicity=m),
        ]
        new_verts = [w for w in verts if w != q] + [v]
        new_attach = _oracle_reindex_attachments(curve, edges, new_edges, set())
        new_attach = new_attach + ((len(new_edges) - 1, node_index),)
        return CurveOnBase(
            TropicalCurve(tuple(sorted(set(new_verts))), tuple(new_edges)), new_attach
        )
    for v in verts:
        offset = v - q
        if offset.cross(e) == 0 and offset.dot(e) > 0:
            target = q - e.scale(delta)
            new_edges = _oracle_retarget(edges, v, target)
            new_edges.append(CurveEdge(target, q))
            new_verts = [target if w == v else w for w in verts]
            new_attach = _oracle_reindex_attachments(curve, edges, new_edges, set())
            new_attach = new_attach + ((len(new_edges) - 1, node_index),)
            return CurveOnBase(TropicalCurve(tuple(new_verts), tuple(new_edges)), new_attach)
    if any(_edge_touches(ed, q) for ed in edges):
        raise ValueError("edge not parallel to eigenray")
    raise ValueError("no exchange site at this node")


@st.composite
def exchange_sequences(draw):
    """A start curve (an outer or inner torus of a surface, the local
    model, or an A_1..A_4 chain) and exchanges at random nodes and
    distances."""
    start = draw(st.sampled_from(["outer", "inner", "local", "chain"]))
    if start in ("outer", "inner"):
        polygon = MOMENT_POLYGONS[draw(st.sampled_from(list(MOMENT_POLYGONS)))]
        diagram = trade_all_corners(BaseDiagram(polygon))
        if start == "outer":
            curve = build_outer_torus(diagram, draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3)])))
        else:
            curve = build_inner_torus(diagram)
    elif start == "local":
        diagram, curve = local_model()
    else:
        diagram, curve = an_chain_curve(draw(st.integers(1, 4)))
    step = st.tuples(
        st.integers(0, len(diagram.nodes) - 1), st.sampled_from([1, F(1, 2), F(1, 3), 2])
    )
    return diagram, curve, draw(st.lists(step, max_size=8))


def exchange_sequence_agrees(diagram, curve, steps) -> str:
    """Run the exchange and the oracle side by side, each on its own
    results; 'ok', 'refused' (the same named error) or 'oracle crashed'."""
    ours = theirs = curve
    for node, delta in steps:
        try:
            theirs = oracle_exchange(diagram, theirs, node, delta)
        except ValueError as err:
            if str(err).endswith("is not in list"):
                return "oracle crashed"
            with pytest.raises(ValueError) as refusal:
                nodal_trade_exchange(diagram, ours, node, delta)
            assert str(refusal.value) == str(err)
            return "refused"
        ours = nodal_trade_exchange(diagram, ours, node, delta)
        assert curve_key(ours) == curve_key(theirs)
        assert ours.curve.vertices == theirs.curve.vertices
        assert len(ours.curve.edges) == len(theirs.curve.edges)
        assert len(ours.attachments) == len(theirs.attachments)
    return "ok"


@settings(max_examples=300, deadline=None)
@given(exchange_sequences())
def test_exchange_agrees_with_the_value_matching_oracle(case):
    exchange_sequence_agrees(*case)


def test_the_oracle_crashes_where_the_exchange_carries_a_moved_leg(cp2):
    # the cp2 outer torus at depth 1/2, exchanged at nodes 0, 1, 0
    curve = build_outer_torus(cp2, F(1, 2))
    steps = [(0, 2), (1, 2), (0, 1)]
    assert exchange_sequence_agrees(cp2, curve, steps) == "oracle crashed"
    for node, delta in steps:
        curve = nodal_trade_exchange(cp2, curve, node, delta)
    assert [ni for _, ni in curve.attachments] == [1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_an_chain_is_admissible(n):
    diagram, curve = an_chain_curve(n)
    assert admissible(curve, diagram)
    assert len(curve.attachments) == n
    assert len(diagram.nodes) == n


def all_pairs_admissible(curve, diagram) -> bool:
    """``admissible`` as it was first written, every free edge tested
    against every node: the oracle for the per-line lookup."""
    attached = dict(curve.attachments)
    for idx, edge in enumerate(curve.curve.edges):
        if idx in attached:
            node = diagram.nodes[attached[idx]]
            if edge.is_ray or node.position not in (edge.a, edge.b):
                return False
            if (edge.b - edge.a).cross(node.eigenray) != 0:
                return False
        elif any(_edge_touches(edge, nd.position) for nd in diagram.nodes):
            return False
    positions = {nd.position for nd in diagram.nodes}
    for v in curve.curve.vertices:
        if v in positions:
            return False
        if diagram.boundary is not None and not diagram.boundary.contains(v, strict=True):
            return False
    return diagram.boundary is None or not any(e.is_ray for e in curve.curve.edges)


HALVES = st.integers(-6, 6).map(lambda k: F(k, 2))
POINTS = st.builds(V, HALVES, HALVES)
DIRECTIONS = [V(1, 0), V(0, 1), V(-1, 0), V(0, -1), V(1, 1), V(-1, -1), V(2, 1), V(-1, 2)]


@st.composite
def curves_and_diagrams(draw):
    """Nodes on a half-integer grid, and edges started at a node or at a
    grid point along a few directions, so that many nodes sit on an edge's
    line inside or outside the segment; rays, one-point segments and
    attachments among them, the plane or a square as the boundary."""
    nodes = draw(st.lists(st.builds(Node, POINTS, st.sampled_from(DIRECTIONS)), max_size=8))
    starts = st.sampled_from([nd.position for nd in nodes]) | POINTS if nodes else POINTS
    edges = []
    for _ in range(draw(st.integers(0, 4))):
        a, d = draw(starts), draw(st.sampled_from(DIRECTIONS))
        if draw(st.booleans()):
            a = a + d.scale(F(draw(st.integers(-4, 4)), 2))
        if draw(st.integers(0, 3)) == 0:
            edges.append(CurveEdge(a, ray=d))
        else:
            edges.append(CurveEdge(a, a + d.scale(F(draw(st.integers(-3, 3)), 2))))
    attachments = ()
    if nodes and edges:
        pairs = st.tuples(st.integers(0, len(edges) - 1), st.integers(0, len(nodes) - 1))
        attachments = tuple(draw(st.lists(pairs, max_size=2, unique_by=lambda t: t[0])))
    vertices = draw(st.lists(POINTS, max_size=3))
    boundary = draw(st.sampled_from([None, square(-4, 4, -4, 4)]))
    curve = CurveOnBase(TropicalCurve(vertices, edges), attachments)
    return curve, BaseDiagram(boundary, tuple(nodes))


@settings(max_examples=300, deadline=None)
@given(curves_and_diagrams())
def test_admissible_agrees_with_the_all_pairs_oracle(case):
    curve, diagram = case
    assert admissible(curve, diagram) == all_pairs_admissible(curve, diagram)


@pytest.mark.parametrize(
    "edge, expected",
    [
        (CurveEdge(V(0, 0), V(1, 0)), True),  # the node is on the line, past b
        (CurveEdge(V(3, 0), V(4, 0)), True),  # the node is on the line, before a
        (CurveEdge(V(0, 0), V(3, 0)), False),
        (CurveEdge(V(2, 0), V(2, 0)), False),  # one point, the node's
        (CurveEdge(V(1, 0), V(1, 0)), True),
        (CurveEdge(V(0, 0), ray=V(1, 0)), False),
        (CurveEdge(V(0, 0), ray=V(-1, 0)), True),
    ],
)
def test_a_free_edge_touches_a_node_only_on_its_own_extent(edge, expected):
    diagram = BaseDiagram(None, (Node(V(2, 0), V(0, 1)),))
    assert admissible(CurveOnBase(TropicalCurve((), (edge,))), diagram) is expected


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


def test_moment_polygon_edge_normals_against_the_fans():
    # the primitive inward normal of a counterclockwise edge is its
    # direction turned a quarter counterclockwise
    negated = {"bl1", "bl2"}
    for name, polygon in MOMENT_POLYGONS.items():
        normals = {(b - a).rot90().primitive() for a, b in polygon.edges()}
        rays = set(DEL_PEZZO_FANS[name])
        assert normals == ({-r for r in rays} if name in negated else rays)
        assert len(normals) == len(polygon.vertices)


@pytest.mark.parametrize(
    "name,d,reversed_trace",
    [("cp2", 9, -52), ("p1p1", 8, 2), ("bl1", 8, -14), ("bl2", 7, -4), ("bl3", 6, -2)],
)
def test_monodromy_at_infinity(name, d, reversed_trace):
    # the node monodromies composed in the order the trades create the
    # nodes give the shear [[1, 0], [-d, 1]], with #nodes + d = 12: for cp2
    # an I_9 fibre and three I_1 fibres.  The product depends on the order;
    # reversed it is another matrix, parabolic too for p1p1
    diagram = trade_all_corners(BaseDiagram(MOMENT_POLYGONS[name]))
    m = backward = UnimodularMap.identity()
    for node in diagram.nodes:
        m = node.monodromy().compose(m)
        backward = backward.compose(node.monodromy())
    assert m == UnimodularMap(1, 0, -d, 1)
    assert len(diagram.nodes) + d == 12
    assert backward.a + backward.d == reversed_trace


@pytest.mark.parametrize("name", list(MOMENT_POLYGONS))
def test_node_eigenrays_match_the_seed_directions(name):
    diagram = trade_all_corners(BaseDiagram(MOMENT_POLYGONS[name]))
    rays = [(int(node.eigenray.x), int(node.eigenray.y)) for node in diagram.nodes]
    assert compare_up_to_unimodular(rays, seed_directions(DEL_PEZZO_FANS[name])) is not None


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


@pytest.mark.parametrize("clockwise", [False, True])
def test_node_check_reads_a_clockwise_region_like_its_reverse(clockwise):
    # max(0, x2) on the 4x4 square around the node, in either orientation
    section = section_with_node(((V(0, 0), F(0)), (V(0, 1), F(0))))
    (chart,) = section.charts
    if clockwise:
        chart = Chart(RatPolygon(tuple(reversed(chart.region.vertices))), chart.phi)
    assert not validate_section(ChartedSection((chart,), (), section.diagram))


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


def test_overlap_check_reads_a_clockwise_region_like_its_reverse():
    base = two_chart_section()
    first, second = base.charts
    clockwise = Chart(RatPolygon(tuple(reversed(first.region.vertices))), first.phi)
    assert validate_section(ChartedSection((clockwise, second)))
    half = TropicalPolynomial(((V(F(1, 2), 0), F(0)),), False)
    assert not validate_section(ChartedSection((clockwise, Chart(second.region, half))))


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


def test_transition_stored_backward_is_read_as_its_inverse():
    # the second chart of two_chart_section, in coordinates x_1 with
    # x_0 = m(x_1)
    first, second = two_chart_section().charts
    m = UnimodularMap(1, 1, 0, 1, V(2, -1))
    region = RatPolygon(tuple(m.inverse().apply(v) for v in second.region.vertices))

    def section(phi, transitions):
        return ChartedSection((first, Chart(region, _pull(phi, m.inverse()))), transitions)

    assert validate_section(section(second.phi, (((0, 1), m),)))
    assert validate_section(section(second.phi, (((1, 0), m.inverse()),)))
    assert not validate_section(section(second.phi, ()))
    half = TropicalPolynomial(((V(F(1, 2), 0), F(0)),), False)
    assert not validate_section(section(half, (((1, 0), m.inverse()),)))


def _pull(phi, m):
    from tropdimer.almost_toric import _transform_polynomial

    return _transform_polynomial(phi, m)


# --- the sampling oracle for overlap compatibility --------------------------
#
# The earlier overlap check, kept as an independent oracle: clip the two
# charts, sample the overlap at its vertices and at every crossing of two
# tie lines (or a tie line and an edge) inside it, and fit one affine
# function through the values of phi_i - phi_j there.  A piecewise-affine
# function that is affine at every vertex of its cells is affine on the
# whole convex overlap, so the verdicts must agree with the cell check.


def _clip(subject, clipper):
    """Exact Sutherland-Hodgman intersection of convex polygons; None when
    the intersection has empty interior."""
    pts = list(subject.vertices)
    for a, b in clipper.edges():
        out = []
        n = b - a
        inside = [n.cross(p - a) >= 0 for p in pts]
        for k, p in enumerate(pts):
            q = pts[(k + 1) % len(pts)]
            pi, qi = inside[k], inside[(k + 1) % len(pts)]
            if pi:
                out.append(p)
            if pi != qi:
                d = q - p
                out.append(p + d.scale(n.cross(a - p) / n.cross(d)))
        pts = out
    dedup = []
    for p in pts:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if dedup and dedup[0] == dedup[-1]:
        dedup.pop()
    if len(dedup) < 3 or RatPolygon(tuple(dedup)).area2() == 0:
        return None
    return RatPolygon(tuple(dedup))


def _tie_lines(phi):
    """(u, r) with <u, x> = r where two terms of phi tie."""
    return [
        (a - b, d - c)
        for k, (a, c) in enumerate(phi.terms)
        for b, d in phi.terms[k + 1 :]
    ]


def _samples(lines, overlap):
    pts = set(overlap.vertices)
    every = lines + [((b - a).rot90(), (b - a).rot90().dot(a)) for a, b in overlap.edges()]
    for k, (u1, r1) in enumerate(every):
        for u2, r2 in every[k + 1 :]:
            det = u1.cross(u2)
            if det != 0:
                p = V((r1 * u2.y - r2 * u1.y) / det, (r2 * u1.x - r1 * u2.x) / det)
                if overlap.contains(p):
                    pts.add(p)
    return sorted(pts)


def _affine_gradient(samples, values):
    """The gradient of the affine function through the samples, or None
    when they fit no affine function.  The samples include the overlap's
    vertices and the overlap has interior, so they are not all collinear."""
    p0, v0 = samples[0], values[0]
    i, j = next(
        (i, j)
        for i in range(1, len(samples))
        for j in range(i + 1, len(samples))
        if (samples[i] - p0).cross(samples[j] - p0) != 0
    )
    di, dj = samples[i] - p0, samples[j] - p0
    det = di.cross(dj)
    vi, vj = values[i] - v0, values[j] - v0
    g = V((vi * dj.y - vj * di.y) / det, (vj * di.x - vi * dj.x) / det)
    if any(v0 + g.dot(p - p0) != v for p, v in zip(samples, values)):
        return None
    return g


def sampled_validate_section(section) -> bool:
    charts = section.charts
    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            t = section.transition(i, j)
            moved = RatPolygon(tuple(t.apply(v) for v in charts[j].region.vertices))
            if moved.area2() < 0:
                moved = RatPolygon(tuple(reversed(moved.vertices)))
            overlap = _clip(charts[i].region, moved)
            if overlap is None:
                continue
            phi_i, phi_j = charts[i].phi, _pull(charts[j].phi, t)
            samples = _samples(_tie_lines(phi_i) + _tie_lines(phi_j), overlap)
            values = [evaluate(phi_i, p) - evaluate(phi_j, p) for p in samples]
            g = _affine_gradient(samples, values)
            if g is None or not g.is_integral():
                return False
    # the node check looks at one chart at a time
    return all(
        validate_section(ChartedSection((chart,), (), section.diagram)) for chart in charts
    )


def _affine_plus(phi, g, k):
    """phi + <g, x> + k."""
    return TropicalPolynomial(tuple((a + g, c + k) for a, c in phi.terms), phi.concave)


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
halves = st.builds(F, st.integers(-4, 4), st.just(2))


@st.composite
def unimodular_maps(draw):
    """Products of shears and the reflection in the x-axis, with a rational
    translation: determinant +1 or -1."""
    m = UnimodularMap.identity()
    steps = draw(st.lists(st.tuples(st.sampled_from("xyr"), st.integers(-2, 2)), max_size=3))
    for op, k in steps:
        if op == "x":
            m = UnimodularMap(1, k, 0, 1).compose(m)
        elif op == "y":
            m = UnimodularMap(1, 0, k, 1).compose(m)
        else:
            m = UnimodularMap(1, 0, 0, -1).compose(m)
    return UnimodularMap(m.a, m.b, m.c, m.d, V(draw(rationals), draw(rationals)))


@st.composite
def convex_regions(draw):
    den = draw(st.integers(1, 2))
    points = draw(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=6)
    )
    hull = convex_hull(points)
    assume(len(hull) >= 3)
    return RatPolygon(tuple(V(F(x, den), F(y, den)) for x, y in hull))


@st.composite
def charted_sections(draw):
    """Charts of one global function, each with its own coordinates, an
    affine change (integral unless drawn otherwise) and sometimes a term
    altered, so that both verdicts occur."""
    concave = draw(st.booleans())
    exponents = draw(st.lists(st.tuples(halves, halves), min_size=1, max_size=4, unique=True))
    base = TropicalPolynomial(tuple((V(*a), draw(rationals)) for a in exponents), concave)
    charts, maps = [], []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(unimodular_maps())
        region = RatPolygon(tuple(m.apply(v) for v in draw(convex_regions()).vertices))
        if m.det < 0:  # counterclockwise, as the sampler's point test needs
            region = RatPolygon(tuple(reversed(region.vertices)))
        slope = halves if draw(st.integers(0, 4)) == 0 else st.integers(-2, 2)
        phi = _affine_plus(_pull(base, m), V(draw(slope), draw(slope)), draw(rationals))
        terms = list(phi.terms)
        change = draw(st.sampled_from(["none", "none", "coefficient", "drop", "add", "flip"]))
        if change == "coefficient":
            k = draw(st.integers(0, len(terms) - 1))
            terms[k] = (terms[k][0], terms[k][1] + draw(rationals))
        elif change == "drop" and len(terms) > 1:
            terms.pop(draw(st.integers(0, len(terms) - 1)))
        elif change == "add":
            a = V(draw(halves), draw(halves))
            if all(a != b for b, _ in terms):
                terms.append((a, draw(rationals)))
        phi = TropicalPolynomial(tuple(terms), phi.concave != (change == "flip"))
        charts.append(Chart(region, phi))
        maps.append(m)
    # a transition left out is the identity, which rarely fits the charts
    transitions = tuple(
        ((i, j), maps[i].compose(maps[j].inverse()))
        for i in range(len(maps))
        for j in range(i + 1, len(maps))
        if draw(st.integers(0, 5))
    )
    diagram = None
    if draw(st.booleans()):
        rays = st.sampled_from([V(1, 0), V(0, 1), V(1, 1), V(-1, 2), V(0, -1)])
        node = st.builds(Node, st.builds(V, rationals, rationals), rays, st.integers(1, 2))
        nodes = draw(st.lists(node, max_size=2))
        diagram = BaseDiagram(None, tuple(nodes))
    return ChartedSection(tuple(charts), transitions, diagram)


@settings(max_examples=200, deadline=None)
@given(charted_sections())
def test_cell_check_agrees_with_the_sampling_oracle(section):
    assert validate_section(section) == sampled_validate_section(section)

