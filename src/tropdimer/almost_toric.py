"""Almost-toric base diagrams, nodal trades, and tropical curves on them.

A base diagram is a polygon (or the whole plane) with marked nodes; each
node carries a primitive eigenray and a multiplicity and induces a cut
along its eigenline with a shear monodromy fixing that line.  Trading a
Delzant corner pushes a node into the interior with the eigenray pointing
back at the corner; the monodromy straightens the corner, so the boundary
becomes an affine circle.

Curves live in the single ambient chart; cut crossings are implicit.
Legs attached to nodes must run parallel to the eigenray.

A charted section glues when each overlap difference phi_i - phi_j o T^-1
is affine with an integral gradient; `validate_section` decides this cell
by cell, where one term of each function is maximal, with one exact
half-plane cut (`_cut`), and decides each node germ exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .lattice import RatPolygon, Record, UnimodularMap, Vec2, on_ray, on_segment
from .tropical import CurveEdge, TropicalCurve, TropicalPolynomial, check_balancing


class Node(Record):
    """A node at ``position`` whose eigenray is a primitive integer
    direction."""

    __slots__ = ("position", "eigenray", "multiplicity")

    def __init__(self, position: Vec2, eigenray: Vec2, multiplicity: int = 1):
        if not eigenray.is_integral() or eigenray.primitive() != eigenray:
            raise ValueError("eigenray must be a primitive integer vector")
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        self.position, self.eigenray, self.multiplicity = position, eigenray, multiplicity

    def monodromy(self) -> UnimodularMap:
        """The k-fold shear fixing the eigenline through the node:
        v -> v + k <n, v> e with n the clockwise quarter turn of e."""
        e = self.eigenray
        n = Vec2(e.y, -e.x)
        k = self.multiplicity
        a = 1 + k * int(e.x * n.x)
        b = k * int(e.x * n.y)
        c = k * int(e.y * n.x)
        d = 1 + k * int(e.y * n.y)
        linear = UnimodularMap(a, b, c, d)
        return UnimodularMap(a, b, c, d, self.position - linear.apply_vector(self.position))


class BaseDiagram(Record):
    """A ``boundary`` polygon (None for the whole plane), its nodes, and
    the traded corners as (corner index, node index) pairs."""

    __slots__ = ("boundary", "nodes", "traded")

    def __init__(self, boundary: RatPolygon | None, nodes: tuple = (), traded: tuple = ()):
        self.boundary, self.nodes, self.traded = boundary, nodes, traded


DIAGRAM_SCHEMA = "tropdimer-diagram/1"


def _rat_point(v: Vec2) -> list:
    """[[num, den], [num, den]]: a point's coordinates in lowest terms."""
    return [[c.numerator, c.denominator] for c in (v.x, v.y)]


def serialize_diagram(diagram: BaseDiagram) -> str:
    """The diagram as a compact `tropdimer-diagram/1` document:

        {"schema": "tropdimer-diagram/1",
         "boundary": [point, ...] | null,
         "traded": [[corner, node], ...],
         "nodes": [{"position": point, "eigenray": [ex, ey], "multiplicity": k}, ...]}

    with each point written as `_rat_point` writes it."""
    doc = {
        "schema": DIAGRAM_SCHEMA,
        "boundary": [_rat_point(v) for v in diagram.boundary.vertices]
        if diagram.boundary is not None
        else None,
        "traded": sorted(diagram.traded),
        "nodes": [
            {
                "position": _rat_point(node.position),
                "eigenray": [int(node.eigenray.x), int(node.eigenray.y)],
                "multiplicity": node.multiplicity,
            }
            for node in diagram.nodes
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


class CurveOnBase(Record):
    """A curve with some of its edges attached to nodes: ``attachments``
    holds (edge index, node index) pairs, and a nodal-trade exchange
    carries each one along with its edge by position."""

    __slots__ = ("curve", "attachments")

    def __init__(self, curve: TropicalCurve, attachments: tuple = ()):
        self.curve, self.attachments = curve, attachments


# ---------------------------------------------------------------------------
# nodal trades


def _corner_data(boundary: RatPolygon, corner_index: int):
    """(corner, primitive inward direction along the corner's bisector)."""
    verts = boundary.vertices
    n = len(verts)
    c = verts[corner_index]
    u = (verts[(corner_index - 1) % n] - c).primitive()
    v = (verts[(corner_index + 1) % n] - c).primitive()
    return c, (u + v).primitive()


def nodal_trade(diagram: BaseDiagram, corner_index: int) -> BaseDiagram:
    """Replace a corner of the boundary by an interior node at lattice
    distance 1 whose eigenray points back into the corner."""
    if diagram.boundary is None:
        raise ValueError("non-corner index")
    n = len(diagram.boundary.vertices)
    if not (0 <= corner_index < n):
        raise ValueError("non-corner index")
    if any(ci == corner_index for ci, _ in diagram.traded):
        raise ValueError("corner already traded")
    corner, w = _corner_data(diagram.boundary, corner_index)
    node = Node(corner + w, -w, 1)
    return BaseDiagram(
        diagram.boundary,
        diagram.nodes + (node,),
        diagram.traded + ((corner_index, len(diagram.nodes)),),
    )


def trade_all_corners(diagram: BaseDiagram) -> BaseDiagram:
    """Every corner of the boundary traded in turn; a diagram with no
    boundary has no corner to trade."""
    if diagram.boundary is None:
        raise ValueError("diagram has no boundary")
    for i in range(len(diagram.boundary.vertices)):
        diagram = nodal_trade(diagram, i)
    return diagram


# ---------------------------------------------------------------------------
# admissibility


def _edge_touches(edge: CurveEdge, p: Vec2) -> bool:
    if edge.is_ray:
        return on_ray(p, edge.a, edge.ray)
    return on_segment(p, edge.a, edge.b)


def admissible(curve: CurveOnBase, diagram: BaseDiagram) -> bool:
    """Legs attached to nodes run parallel to the eigenray and terminate
    there; everything else stays clear of the nodes and the boundary."""
    attached = {ei: ni for ei, ni in curve.attachments}
    positions = {nd.position for nd in diagram.nodes}
    lines: dict = {}  # sign-normalised primitive d -> {d x p: the node positions p}
    for idx, edge in enumerate(curve.curve.edges):
        if idx in attached:
            node = diagram.nodes[attached[idx]]
            if edge.is_ray:
                return False
            ends = (edge.a, edge.b)
            if node.position not in ends:
                return False
            if (edge.b - edge.a).cross(node.eigenray) != 0:
                return False
            continue
        d = edge.ray if edge.is_ray else edge.b - edge.a
        if d.is_zero():  # a one-point segment touches only its point
            if edge.a in positions:
                return False
            continue
        d = d.primitive()
        if (d.x, d.y) < (0, 0):
            d = -d
        if d not in lines:
            lines[d] = {}
            for p in positions:
                lines[d].setdefault(d.cross(p), []).append(p)
        if any(_edge_touches(edge, p) for p in lines[d].get(d.cross(edge.a), ())):
            return False
    for v in curve.curve.vertices:
        if v in positions:
            return False
        if diagram.boundary is not None and not diagram.boundary.contains(v, strict=True):
            return False
    if diagram.boundary is not None and any(e.is_ray for e in curve.curve.edges):
        return False
    return True


# ---------------------------------------------------------------------------
# boundary-parallel tori


def _corner_frames(diagram: BaseDiagram):
    """(corner, inward direction w, lattice distance t to its node, node
    index) for each corner in order; every corner must be traded."""
    if diagram.boundary is None:
        raise ValueError("diagram has no boundary")
    n = len(diagram.boundary.vertices)
    by_corner = dict(diagram.traded)
    if sorted(by_corner) != list(range(n)):
        raise ValueError("every corner must be traded first")
    frames = []
    for i in range(n):
        corner, w = _corner_data(diagram.boundary, i)
        offset = diagram.nodes[by_corner[i]].position - corner
        t = offset.x / w.x if w.x != 0 else offset.y / w.y
        frames.append((corner, w, t, by_corner[i]))
    return frames


def build_outer_torus(diagram: BaseDiagram, r) -> CurveOnBase:
    """The boundary-parallel circle at collar depth r, with its corners on
    the cuts (where the monodromy straightens them); no node contact."""
    frames = _corner_frames(diagram)
    r = Fraction(r)
    n = len(frames)
    pts = []
    for corner, w, t, _ in frames:
        if not (0 < r < t):
            raise ValueError("collar depth out of range")
        pts.append(corner + w.scale(r))
    edges = tuple(CurveEdge(pts[i], pts[(i + 1) % n]) for i in range(n))
    return CurveOnBase(TropicalCurve(tuple(pts), edges), ())


def build_inner_torus(diagram: BaseDiagram, s=None) -> CurveOnBase:
    """One trivalent vertex per node, past the node on its eigenline, with
    an eigenray leg to the node; the remaining legs glue into a closed
    boundary-parallel cycle.  All vertices sit at the same lattice depth."""
    frames = _corner_frames(diagram)
    n = len(frames)
    if s is None:
        s = max(t for _, _, t, _ in frames) + 1
    s = Fraction(s)
    if any(s <= t for _, _, t, _ in frames):
        raise ValueError("inconsistent placement")
    pts = [corner + w.scale(s) for corner, w, _, _ in frames]
    loop = [CurveEdge(pts[i], pts[(i + 1) % n]) for i in range(n)]
    legs = [CurveEdge(pts[i], diagram.nodes[k].position) for i, (*_, k) in enumerate(frames)]
    curve = TropicalCurve(tuple(pts), tuple(loop + legs))
    if not check_balancing(curve):
        raise ValueError("inconsistent placement")
    return CurveOnBase(curve, tuple((n + i, k) for i, (*_, k) in enumerate(frames)))


# ---------------------------------------------------------------------------
# the nodal-trade exchange


def local_model():
    """The model pair Q_x: one node at the origin with vertical eigenray,
    and the line through it (the nonlinearity locus of 1 (+) x1)."""
    node = Node(Vec2(0, 0), Vec2(0, 1))
    diagram = BaseDiagram(None, (node,))
    o = Vec2(0, 0)
    line = TropicalCurve(
        (o,), (CurveEdge(o, ray=Vec2(0, 1)), CurveEdge(o, ray=Vec2(0, -1)))
    )
    return diagram, CurveOnBase(line, ())


def _moved(edge: CurveEdge, old: Vec2, new: Vec2) -> CurveEdge:
    """The edge with its end at ``old``, if it has one, moved to ``new``."""
    if edge.a == old:
        return CurveEdge(new, edge.b, edge.ray, edge.multiplicity)
    if not edge.is_ray and edge.b == old:
        return CurveEdge(edge.a, new, edge.ray, edge.multiplicity)
    return edge


def _pants(e: Vec2, m: int) -> list:
    """The sorted (primitive direction, multiplicity) germs of the two
    non-leg rays of the exchanged trivalent vertex whose eigenray leg has
    multiplicity m; with the leg they balance: -n + (n - e) + e = 0."""
    n = Vec2(e.y, -e.x)
    second = n - e
    return sorted([(-n, m), (second.primitive(), m * math.gcd(int(second.x), int(second.y)))])


def _edit(curve: CurveOnBase, drop, old: Vec2, new: Vec2, added=(), leg=None) -> CurveOnBase:
    """Drop the edges indexed by ``drop``, move the vertex ``old`` to ``new``
    in the rest, and append the ``added`` edges and then ``leg``, an (edge,
    node index) pair attached to its node; each attachment follows its edge
    by position.  Edits that add edges (the line cases) sort and
    deduplicate the vertices; the others keep their order."""
    kept = [i for i in range(len(curve.curve.edges)) if i not in drop]
    position = {i: k for k, i in enumerate(kept)}
    edges = [_moved(curve.curve.edges[i], old, new) for i in kept] + list(added)
    attachments = [(position[ei], ni) for ei, ni in curve.attachments if ei in position]
    if leg is not None:
        attachments.append((len(edges), leg[1]))
        edges.append(leg[0])
    verts = [new if w == old else w for w in curve.curve.vertices]
    if added:
        verts = sorted(set(verts))
    return CurveOnBase(TropicalCurve(tuple(verts), tuple(edges)), tuple(attachments))


def nodal_trade_exchange(
    diagram: BaseDiagram, curve: CurveOnBase, node_index: int, delta=1
) -> CurveOnBase:
    """Exchange a curve across one node.

    Forward from a line through the node (local model): the straight edge
    becomes a trivalent pants vertex pushed off the node plus a thimble
    leg.  Forward from a two-valent cut vertex on the corner side (an
    outer-torus corner): the vertex moves to q - delta e, past the node q
    with eigenray e, and picks up a thimble leg.  Both inverses are
    supported; the thimble is detected by its attachment.  Undoing a vertex
    exchange puts the vertex at q + delta e: on the outer torus of depth
    1/2 with nodes at distance 1, delta = 1/2 restores it, and the default
    delta = 1 lands on the polygon's corner (not admissible).
    """
    node = diagram.nodes[node_index]
    e, q = node.eigenray, node.position
    delta = Fraction(delta)
    edges, verts = curve.curve.edges, curve.curve.vertices

    def incident(p):
        return {i: ed for i, ed in enumerate(edges) if ed.a == p or (not ed.is_ray and ed.b == p)}

    leg_idx = min((ei for ei, ni in curve.attachments if ni == node_index), default=None)
    if leg_idx is not None:
        # inverse: the vertex v carrying the first thimble leg to this node
        leg = edges[leg_idx]
        v = leg.a if leg.b == q else leg.b
        others = {i: ed for i, ed in incident(v).items() if i != leg_idx}
        germs = sorted((ed.ray, ed.multiplicity) for ed in others.values() if ed.is_ray)
        m = leg.multiplicity
        if len(others) == 2 and germs == _pants(e, m):
            # undo the line exchange: restore the straight line through the node
            line = (CurveEdge(q, ray=e, multiplicity=m), CurveEdge(q, ray=-e, multiplicity=m))
            return _edit(curve, {*others, leg_idx}, v, q, line)
        # undo a vertex exchange: move the vertex back to the corner side
        return _edit(curve, {leg_idx}, v, q + e.scale(delta))

    if q in verts:
        # forward from a vertex at the node itself: the straight-line case
        at_q = incident(q)
        if any(e.cross(ed.ray if ed.is_ray else ed.b - ed.a) for ed in at_q.values()):
            raise ValueError("edge not parallel to eigenray")
        m = at_q[min(at_q)].multiplicity
        v = q - e.scale(delta)
        pants = [CurveEdge(v, ray=d, multiplicity=k) for d, k in _pants(e, m)]
        return _edit(curve, at_q, q, v, pants, (CurveEdge(v, q, multiplicity=m), node_index))

    # forward from a cut vertex on the corner side of the node
    for v in verts:
        if on_ray(v, q, e):
            target = q - e.scale(delta)
            return _edit(curve, (), v, target, leg=(CurveEdge(target, q), node_index))

    # nothing at the node: any edge crossing the node is transverse
    if any(_edge_touches(ed, q) for ed in edges):
        raise ValueError("edge not parallel to eigenray")
    raise ValueError("no exchange site at this node")


def curve_key(curve: CurveOnBase):
    """Canonical form for equality of curves up to storage order."""
    edges = curve.curve.edges
    attach = {ei: ni for ei, ni in curve.attachments}

    def edge_key(i, e):
        if e.is_ray:
            geom = ("ray", e.a, e.ray, e.multiplicity)
        else:
            lo, hi = sorted((e.a, e.b))
            geom = ("seg", lo, hi, e.multiplicity)
        return geom + (attach.get(i, -1),)

    return (
        tuple(sorted(set(curve.curve.vertices))),
        tuple(sorted(edge_key(i, e) for i, e in enumerate(edges))),
    )


def curves_equal(c1: CurveOnBase, c2: CurveOnBase) -> bool:
    return curve_key(c1) == curve_key(c2)


# ---------------------------------------------------------------------------
# the A_n chain


def an_chain_curve(n: int):
    """A chain of n nodes on one eigenline and the closed loop weaving
    around them, with one eigenray leg per node.

    The loop is the shadow of an (n+2)-punctured sphere; it is admissible
    but, like any polygonal shadow, not balanced at its detour corners.
    """
    if n < 1:
        raise ValueError("chain length must be positive")
    nodes = tuple(Node(Vec2(0, i), Vec2(0, 1)) for i in range(1, n + 1))
    diagram = BaseDiagram(None, nodes)
    half = Fraction(1, 2)
    L = [Vec2(0, i - half) for i in range(1, n + 2)]
    R = [Vec2(1, i) for i in range(1, n + 1)]
    top, bottom = Vec2(-1, n + half), Vec2(-1, half)
    verts = L + R + [top, bottom]
    edges = []
    for i in range(n):
        edges.append(CurveEdge(L[i], R[i]))
        edges.append(CurveEdge(R[i], L[i + 1]))
    edges.append(CurveEdge(L[n], top))
    edges.append(CurveEdge(top, bottom))
    edges.append(CurveEdge(bottom, L[0]))
    attachments = []
    for i in range(n):
        edges.append(CurveEdge(L[i], nodes[i].position))
        attachments.append((len(edges) - 1, i))
    return diagram, CurveOnBase(TropicalCurve(tuple(verts), tuple(edges)), tuple(attachments))


# ---------------------------------------------------------------------------
# charted sections


class Chart(Record):
    __slots__ = ("region", "phi")

    def __init__(self, region: RatPolygon, phi: TropicalPolynomial):
        self.region, self.phi = region, phi


class ChartedSection(Record):
    """Charts glued by ``transitions``, ((i, j), UnimodularMap) pairs with
    x_i = T(x_j), over an optional base diagram."""

    __slots__ = ("charts", "transitions", "diagram")

    def __init__(self, charts: tuple, transitions: tuple = (), diagram: BaseDiagram | None = None):
        self.charts, self.transitions, self.diagram = charts, transitions, diagram

    def transition(self, i: int, j: int) -> UnimodularMap:
        for (a, b), t in self.transitions:
            if (a, b) == (i, j):
                return t
            if (a, b) == (j, i):
                return t.inverse()
        return UnimodularMap.identity()


def _transform_polynomial(phi: TropicalPolynomial, t: UnimodularMap) -> TropicalPolynomial:
    """The pullback along t^{-1}: (result)(x) = phi(t^{-1} x)."""
    inv = t.inverse()
    terms = []
    for a, c in phi.terms:
        a2 = Vec2(inv.a * a.x + inv.c * a.y, inv.b * a.x + inv.d * a.y)
        c2 = c + a.dot(inv.t)
        terms.append((a2, c2))
    return TropicalPolynomial(tuple(terms), phi.concave)


def _cut(points, u: Vec2, r) -> list:
    """The part of the convex polygon with these vertices where
    <u, x> >= r: one exact Sutherland-Hodgman step."""
    out = []
    for k, p in enumerate(points):
        q = points[(k + 1) % len(points)]
        sp, sq = u.dot(p) - r, u.dot(q) - r
        if sp >= 0:
            out.append(p)
        if sp * sq < 0:
            out.append(p + (q - p).scale(sp / (sp - sq)))
    return out


def _has_interior(points) -> bool:
    """Nonzero area, in either orientation."""
    return len(points) >= 3 and RatPolygon(tuple(points)).area2() != 0


def _cells(points, phi: TropicalPolynomial):
    """(cell, gradient of phi there) for each term of phi: the polygon cut
    by the term's dominance half-planes <a_k - a, x> >= c - c_k."""
    sign = -1 if phi.concave else 1
    for ak, ck in phi.terms:
        cell = points
        for a, c in phi.terms:
            if a != ak:
                cell = _cut(cell, ak - a, c - ck)
        yield cell, ak.scale(sign)


def _covector_fixed(alpha: Vec2, m: UnimodularMap) -> bool:
    """alpha o M = alpha for the linear part of m."""
    return (
        alpha.x * m.a + alpha.y * m.c == alpha.x
        and alpha.x * m.b + alpha.y * m.d == alpha.y
    )


def _enters(region: RatPolygon, p: Vec2, ray: Vec2) -> bool:
    """Whether p + eps ray lies strictly inside the region for every small
    eps > 0: on each edge inequality the value at p is positive, or it is
    zero and its derivative along the ray is positive.  A clockwise region
    is read like its reverse."""
    if region.is_degenerate:
        return False
    for a, b in region.counterclockwise().edges():
        value = (b - a).cross(p - a)
        if value < 0 or (value == 0 and (b - a).cross(ray) <= 0):
            return False
    return True


def validate_section(section: ChartedSection) -> bool:
    charts = section.charts
    # overlap compatibility: every cell with interior, where one term of
    # each function is maximal, gives the same integral gradient difference
    for i in range(len(charts)):
        for j in range(i + 1, len(charts)):
            t = section.transition(i, j)
            moved = RatPolygon(tuple(t.apply(v) for v in charts[j].region.vertices))
            overlap = list(charts[i].region.vertices)
            for a, b in moved.counterclockwise().edges():
                normal = (b - a).rot90()
                overlap = _cut(overlap, normal, normal.dot(a))
            if not _has_interior(overlap):
                continue
            phi_j = _transform_polynomial(charts[j].phi, t)
            gradients = {
                g_i - g_j
                for cell_i, g_i in _cells(overlap, charts[i].phi)
                for cell, g_j in _cells(cell_i, phi_j)
                if _has_interior(cell)
            }
            if len(gradients) != 1 or not gradients.pop().is_integral():
                return False
    # node compatibility: the covectors active on each germ of the eigenline
    # at a node that enters a chart's interior must be monodromy-invariant;
    # on the germ of node + eps ray they are those maximal in (value at the
    # node, derivative along the ray), lexicographically
    if section.diagram is not None:
        for node in section.diagram.nodes:
            m = node.monodromy()
            for chart in charts:
                for sign in (1, -1):
                    ray = node.eigenray.scale(sign)
                    if not _enters(chart.region, node.position, ray):
                        continue
                    germ = [((c + a.dot(node.position), a.dot(ray)), a) for a, c in chart.phi.terms]
                    best = max(key for key, _ in germ)
                    if any(key == best and not _covector_fixed(a, m) for key, a in germ):
                        return False
    return True
