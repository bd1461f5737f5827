"""Dual dimers on the torus.

A dual dimer is two colored collections of convex polygons with vertices
in (1/N)Z^2, drawn on T^2 = R^2/Z^2, such that

  (i)   within each color, all polygon vertices are distinct mod Z^2,
  (ii)  the white and black vertex sets coincide mod Z^2, and
  (iii) at each matched vertex the black edge germs point opposite to the
        white edge germs.

From this data we extract the bipartite polytope-adjacency graph, the
zigzag cycles obtained by concatenating parallel polygon edges, the disk
faces of the embedded graph, and the associated tropical fan.

Polygons are given and kept as integer numerators over N: a vertex is a
pair (x, y) of ints standing for (x/N, y/N), a torus point is its
representative (x % N, y % N), and an edge germ is a primitive integer
direction.  The edge displacements (hence the Kasteleyn exponents) are
integer pairs over the graph's denominator D = N * lcm of the polygons'
vertex counts, that of every vertex centroid; only the fan is rational.

Validation also asks whether two polygon interiors meet on T^2, which
separates embedded dimers from immersed ones.  A broad phase sweeps the
polygons' x-extents around the circle R / N Z and tests the y-extents of
each pair the sweep finds, O(P log P) plus those pairs; the narrow phase
counts points of N Z^2 inside the Minkowski difference of a candidate pair
with the floor sums of `lattice.interior_lattice_count`, O(n log extent)
for n vertices, after one merge of the two polygons' edges in the order of
`lattice.angle_cmp`.  No step loops over translates, so the cost does not
grow with the size of the coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .lattice import H1Class, Vec2, angle_cmp, interior_lattice_count, strictly_convex

if TYPE_CHECKING:
    from .tropical import TropicalCurve

WHITE = "white"
BLACK = "black"


@dataclass(frozen=True)
class Polytope:
    """One polygon: its color and its vertices as integer pairs over the
    denominator N of the dimer that holds it."""

    color: str
    vertices: tuple

    def __post_init__(self):
        if self.color not in (WHITE, BLACK):
            raise ValueError(f"unknown color {self.color!r}")
        object.__setattr__(self, "vertices", tuple(tuple(v) for v in self.vertices))


@dataclass(frozen=True)
class DualDimer:
    """The dimer data: polytopes whose vertices are integer pairs over
    N = ``denominator``, each polygon strictly convex and counterclockwise.

    Each structural stage below is computed at most once per instance, on
    first use, and kept on it (a stage that raises keeps nothing).  The
    module functions `validate`, `build_graph`, `zigzag_paths` and `faces`
    return the kept value.  Equality and hashing use the fields only.
    """

    denominator: int
    polytopes: tuple

    def __post_init__(self):
        object.__setattr__(self, "polytopes", tuple(self.polytopes))
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        for p in self.polytopes:
            if len(p.vertices) < 3:
                raise ValueError("degenerate polytope")
            if any(len(v) != 2 or not all(type(c) is int for c in v) for v in p.vertices):
                raise ValueError("vertex must be a pair of integer numerators")
            if not strictly_convex(p.vertices):
                raise ValueError("polytope is not strictly convex and counterclockwise")

    def indices(self, color: str):
        return [i for i, p in enumerate(self.polytopes) if p.color == color]

    @functools.cached_property
    def _vertex_maps(self):
        return {color: _vertex_map(self, color) for color in (WHITE, BLACK)}

    @functools.cached_property
    def _report(self):
        return _validate(self)

    @functools.cached_property
    def _graph(self):
        return _build_graph(self)

    @functools.cached_property
    def _zigzags(self):
        return _zigzag_paths(self)

    @functools.cached_property
    def _faces(self):
        return _trace_faces(self)


def fundamental_lift(points, n: int):
    """The translate of an integer polygon by multiples of n whose least
    vertex lies in [0, n)^2; the same for every lift of the polygon."""
    lx, ly = min(points)
    dx, dy = lx % n - lx, ly % n - ly
    return [(x + dx, y + dy) for x, y in points]


def _primitive(dx: int, dy: int):
    """The primitive integer direction of a nonzero integer vector."""
    g = math.gcd(dx, dy)
    return (dx // g, dy // g)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    distinct_ok: bool
    distinct_offenders: tuple
    matching_ok: bool
    matching_offenders: tuple
    germs_ok: bool
    germ_offenders: tuple
    self_intersecting: bool
    denominator: int  # offenders are torus points (x % N, y % N)

    @property
    def ok(self) -> bool:
        return self.distinct_ok and self.matching_ok and self.germs_ok

    def lines(self):
        n = self.denominator
        for label, flag, offenders in (
            ("distinct vertices per color", self.distinct_ok, self.distinct_offenders),
            ("white/black vertex sets match mod Z^2", self.matching_ok, self.matching_offenders),
            ("opposite edge germs at matched vertices", self.germs_ok, self.germ_offenders),
        ):
            points = ", ".join(f"T({Fraction(x, n)}, {Fraction(y, n)})" for x, y in offenders)
            verdict = "pass" if flag else "FAIL"
            yield f"{label}: {verdict}" + (f" offenders=[{points}]" if offenders else "")
        yield "self-intersections: " + ("present" if self.self_intersecting else "none")


def _vertex_map(dimer: DualDimer, color: str):
    """torus point -> (polytope index, vertex index) for one color."""
    n = dimer.denominator
    out: dict = {}
    clashes = []
    for i in dimer.indices(color):
        for k, (x, y) in enumerate(dimer.polytopes[i].vertices):
            t = (x % n, y % n)
            if t in out:
                clashes.append(t)
            out[t] = (i, k)
    return out, clashes


def _germs(points, k: int):
    """Primitive directions of the two polygon edges leaving vertex k."""
    x, y = points[k]
    return frozenset(
        _primitive(px - x, py - y) for px, py in (points[(k + 1) % len(points)], points[k - 1])
    )


def _minkowski_difference(p, q):
    """The edges (x0, y0, x1, y1) of P + (-Q), counterclockwise, for strictly
    convex counterclockwise integer polygons p and q: one merge of their edge
    vectors by angle, each polygon's read from its lowest vertex."""

    def start(poly):  # the lowest vertex and the edge vectors from it
        k = min(range(len(poly)), key=lambda i: (poly[i][1], poly[i][0]))
        poly = poly[k:] + poly[:k]
        following = poly[1:] + poly[:1]
        return poly[0], [(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(poly, following)]

    (px, py), pe = start(list(p))
    (qx, qy), qe = start([(-x, -y) for x, y in q])
    x, y = px + qx, py + qy
    edges = []
    i = j = 0
    while i < len(pe) or j < len(qe):
        if j == len(qe) or (i < len(pe) and angle_cmp(pe[i], qe[j]) < 0):
            (dx, dy), i = pe[i], i + 1
        else:
            (dx, dy), j = qe[j], j + 1
        edges.append((x, y, x + dx, y + dy))
        x, y = x + dx, y + dy
    return edges


def _torus_interiors_intersect(p, q, n: int, exclude_zero: bool) -> bool:
    """Do the interiors of the convex integer polygons p and q + n t meet for
    some t in Z^2 (t != 0 when ``exclude_zero``)?

    They meet at t exactly when n t lies in the open interior of
    R = P + (-Q), so this counts the points of n Z^2 there: O((|p| + |q|)
    log extent) with floor sums, whatever the size of the coordinates.  For
    q = p the origin is always one of them.
    """
    return interior_lattice_count(_minkowski_difference(p, q), n) > int(exclude_zero)


def _arc_pairs(arcs, n: int):
    """The pairs i < j of open arcs (start, length), integers with start in
    [0, n), that meet on the circle R / n Z: one sort and sweep.

    An arc that passes n is cut there in two pieces; two open arcs with
    integer ends that meet share an interval, which the cut cannot split
    into nothing.  An arc of length >= n meets every other.
    """
    pieces = []
    for i, (s, w) in enumerate(arcs):
        if w >= n:
            pieces.append((0, n, i))
            continue
        pieces.append((s, min(s + w, n), i))
        if s + w > n:
            pieces.append((0, s + w - n, i))
    pieces.sort()
    pairs = set()
    active = []
    for s, e, i in pieces:
        active = [(end, j) for end, j in active if end > s]
        pairs.update((j, i) if j < i else (i, j) for _, j in active)
        active.append((e, i))
    return pairs


def _self_intersecting(points, n: int) -> bool:
    """Whether the interiors of two polygons, or of a polygon and a translate
    of itself, meet on T^2.

    Broad phase: the open x-extents of two polygons must meet on R / n Z,
    which one sweep finds, and so must their y-extents, tested on each pair
    it finds: two open arcs meet when one starts inside the other.  A
    polygon can meet its own translate only if its width or height exceeds
    n.  Narrow phase: the exact lattice count of `_torus_interiors_intersect`
    on the candidate pairs alone.
    """
    boxes = []
    for pts in points:
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        boxes.append((min(xs), max(xs) - min(xs), min(ys), max(ys) - min(ys)))
    candidates = [(i, i) for i, (_, w, _, h) in enumerate(boxes) if w > n or h > n]
    for i, j in _arc_pairs([(x % n, w) for x, w, _, _ in boxes], n):
        (_, _, yi, hi), (_, _, yj, hj) = boxes[i], boxes[j]
        if (yj - yi) % n < hi or (yi - yj) % n < hj:
            candidates.append((i, j))
    return any(
        _torus_interiors_intersect(points[i], points[j], n, exclude_zero=(i == j))
        for i, j in candidates
    )


def validate(dimer: DualDimer) -> ValidationReport:
    return dimer._report


def _validate(dimer: DualDimer) -> ValidationReport:
    """The three axioms, checked on the vertex maps, and whether the dimer
    is immersed: `_self_intersecting` keeps the polygon pairs whose extents
    meet on both circles of the torus (broad phase) and runs the exact
    lattice count of `_torus_interiors_intersect` on those alone (narrow
    phase).  Near-linear in the number of polygons P on the dimers the
    toolkit makes, whose extents are short against N."""
    white_map, white_clash = dimer._vertex_maps[WHITE]
    black_map, black_clash = dimer._vertex_maps[BLACK]
    distinct_ok = not white_clash and not black_clash

    mismatch = tuple(sorted(set(white_map) ^ set(black_map)))
    matching_ok = not mismatch

    points = [p.vertices for p in dimer.polytopes]
    germ_offenders = []
    if matching_ok and distinct_ok:
        for t in white_map:
            wi, wk = white_map[t]
            bi, bk = black_map[t]
            wg = _germs(points[wi], wk)
            bg = _germs(points[bi], bk)
            if frozenset((-gx, -gy) for gx, gy in wg) != bg:
                germ_offenders.append(t)
    germs_ok = matching_ok and distinct_ok and not germ_offenders

    n = dimer.denominator
    return ValidationReport(
        distinct_ok,
        tuple(sorted(set(white_clash + black_clash))),
        matching_ok,
        mismatch,
        germs_ok,
        tuple(sorted(germ_offenders)),
        _self_intersecting(points, n),
        n,
    )


# ---------------------------------------------------------------------------
# the bipartite graph


@dataclass(frozen=True)
class DimerEdge:
    white: int
    black: int
    anchor: tuple  # the shared vertex as a torus point (x % N, y % N)
    white_vertex: tuple  # the white polygon's stored numerators of the anchor
    black_vertex: tuple
    displacement: tuple  # white centroid -> anchor -> black centroid, lifted, over D

    @property
    def edge_id(self) -> str:
        return f"w{self.white}-b{self.black}@{self.anchor[0]},{self.anchor[1]}"


def edge_weight(weights, edge_id: str) -> Fraction:
    """The weight of the edge named ``edge_id``; ValueError naming the edge
    when ``weights`` has none."""
    if edge_id not in weights:
        raise ValueError(f"no weight for edge {edge_id}")
    return Fraction(weights[edge_id])


def unknown_weight_keys(graph: DimerGraph, weights) -> list:
    """The keys of ``weights`` that name no edge of ``graph``, sorted."""
    return sorted(set(weights) - {e.edge_id for e in graph.edges})


@dataclass(frozen=True)
class DimerGraph:
    whites: tuple  # polytope indices
    blacks: tuple
    edges: tuple
    denominator: int  # D = N * lcm of the vertex counts, that of every centroid


def build_graph(dimer: DualDimer) -> DimerGraph:
    return dimer._graph


def _build_graph(dimer: DualDimer) -> DimerGraph:
    if not validate(dimer).ok:
        raise ValueError("dimer fails validation; cannot build graph")
    white_map, _ = dimer._vertex_maps[WHITE]
    black_map, _ = dimer._vertex_maps[BLACK]
    points = [p.vertices for p in dimer.polytopes]
    scale = math.lcm(*map(len, points))  # D / N
    arms = []  # per polygon, each vertex minus the polygon's vertex centroid, over D
    for pts in points:
        k = scale // len(pts)
        cx, cy = k * sum(x for x, _ in pts), k * sum(y for _, y in pts)
        arms.append([(scale * x - cx, scale * y - cy) for x, y in pts])
    edges = []
    for t in sorted(white_map):
        wi, wk = white_map[t]
        bi, bk = black_map[t]
        # (white lift - white centroid) - (black lift - black centroid)
        (wx, wy), (bx, by) = arms[wi][wk], arms[bi][bk]
        edges.append(DimerEdge(wi, bi, t, points[wi][wk], points[bi][bk], (wx - bx, wy - by)))
    return DimerGraph(
        tuple(dimer.indices(WHITE)),
        tuple(dimer.indices(BLACK)),
        tuple(edges),
        dimer.denominator * scale,
    )


# ---------------------------------------------------------------------------
# zigzag paths


@dataclass(frozen=True)
class ZigzagStep:
    polytope: int
    start: tuple  # stored numerators on the polygon boundary
    end: tuple

    @property
    def displacement(self) -> tuple:
        return (self.end[0] - self.start[0], self.end[1] - self.start[1])


@dataclass(frozen=True)
class ZigzagPath:
    steps: tuple
    cls: H1Class


def _directed_boundary(dimer: DualDimer):
    """Directed polygon edges: black traversed counterclockwise, white clockwise.

    This orientation is the boundary of the 2-chain (sum of black polygons
    minus sum of white polygons); matched germs then concatenate head to
    tail, which is what makes zigzag classes sum to zero.
    """
    darts = []
    for i, p in enumerate(dimer.polytopes):
        verts = p.vertices
        if p.color == WHITE:
            verts = tuple(reversed(verts))
        n = len(verts)
        for k in range(n):
            darts.append(ZigzagStep(i, verts[k], verts[(k + 1) % n]))
    return darts


def zigzag_paths(dimer: DualDimer):
    """The zigzag cycles, in a fixed order; needs no validation."""
    return dimer._zigzags


def _zigzag_paths(dimer: DualDimer):
    n = dimer.denominator
    darts = _directed_boundary(dimer)

    def key(point, dart):  # a dart's torus point and primitive direction
        return (point[0] % n, point[1] % n, _primitive(*dart.displacement))

    lookup = {}
    for d in darts:
        if key(d.start, d) in lookup:
            raise ValueError("ambiguous zigzag continuation")
        lookup[key(d.start, d)] = d

    colors = {i: p.color for i, p in enumerate(dimer.polytopes)}
    successor = {}
    for d in darts:
        nxt = lookup.get(key(d.end, d))
        if nxt is None or colors[nxt.polytope] == colors[d.polytope]:
            raise ValueError("zigzag continuation missing; dimer is not valid")
        successor[d] = nxt

    seen = set()
    paths = []
    for d in sorted(darts, key=lambda s: (s.polytope, s.start, s.end)):
        if d in seen:
            continue
        cycle = [d]
        seen.add(d)
        cur = successor[d]
        while cur != d:
            cycle.append(cur)
            seen.add(cur)
            cur = successor[cur]
        # each step ends where the next starts on the torus (the lookup
        # key), so the sum of the displacements is a multiple of N
        tx = sum(s.end[0] - s.start[0] for s in cycle)
        ty = sum(s.end[1] - s.start[1] for s in cycle)
        paths.append(ZigzagPath(tuple(cycle), H1Class(tx // n, ty // n)))
    return tuple(paths)


def _black_lattice_length(dimer: DualDimer, path: ZigzagPath) -> int:
    total = 0
    for s in path.steps:
        if dimer.polytopes[s.polytope].color != BLACK:
            continue
        total += math.gcd(*s.displacement)
    return total


def dimer_to_tropical_fan(dimer: DualDimer) -> TropicalCurve:
    """The fan of ray directions read off the zigzag data.

    Each zigzag family contributes the clockwise quarter-turn of its
    traversal direction (the outward normal of its black edges) with
    multiplicity the total lattice length of those black edges, measured
    in (1/N)Z^2.  Calibrated so a single mirror-pair dimer reproduces the
    nonlinearity locus of the dual function of its black polygon.
    """
    from .tropical import make_fan

    rays: dict = {}
    for path in zigzag_paths(dimer):
        cls = path.cls
        if cls.a == 0 and cls.b == 0:
            raise ValueError("null-homologous zigzag has no ray direction")
        direction = Vec2(*_primitive(cls.b, -cls.a))
        rays[direction] = rays.get(direction, 0) + _black_lattice_length(dimer, path)
    return make_fan(sorted(rays.items()))


# ---------------------------------------------------------------------------
# faces of the embedded graph


@dataclass(frozen=True)
class DimerFace:
    boundary: tuple  # alternating (polytope index, color) around the face
    edge_indices: tuple  # indices into build_graph(...).edges, same order
    orientations: tuple  # +1 for a white->black crossing, -1 otherwise
    cls: H1Class


def face_orbits(darts, tail, reverse, order):
    """Orbits of the face permutation of a graph embedded in an oriented
    surface: lists of darts in walk order, in the order of their first dart
    in ``darts``.

    ``tail(d)`` is the vertex dart ``d`` leaves, ``reverse(d)`` the dart of
    the same edge traversed backwards, and the sort key ``order(d)`` puts
    the darts leaving a vertex in counterclockwise cyclic order (the
    rotation system).  A dart is followed by the one after its reverse in
    the rotation at its head.
    """
    rings: dict = {}
    for d in darts:
        rings.setdefault(tail(d), []).append(d)
    after = {}
    for ring in rings.values():
        ring.sort(key=order)
        for k, d in enumerate(ring):
            after[d] = ring[(k + 1) % len(ring)]

    seen = set()
    orbits = []
    for start in darts:
        if start in seen:
            continue
        orbit = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = after[reverse(cur)]
        orbits.append(orbit)
    return orbits


def faces(dimer: DualDimer):
    return dimer._faces


def _trace_faces(dimer: DualDimer):
    report = validate(dimer)
    if not report.ok:
        raise ValueError("dimer fails validation")
    if report.self_intersecting:
        raise ValueError("faces undefined for immersed dimer")
    graph = build_graph(dimer)
    n = dimer.denominator
    corners = {color: dimer._vertex_maps[color][0] for color in (WHITE, BLACK)}

    # darts (edge index, +1 white -> black or -1 back), rotated at each
    # polytope in the order of its anchors around the convex polygon, which
    # is the counterclockwise order of its vertex indices
    def tail(dart):
        e = graph.edges[dart[0]]
        return e.white if dart[1] > 0 else e.black

    def corner(dart):
        anchor = graph.edges[dart[0]].anchor
        return corners[WHITE if dart[1] > 0 else BLACK][anchor][1]

    all_darts = [(i, s) for i in range(len(graph.edges)) for s in (+1, -1)]
    out = []
    for walk in face_orbits(all_darts, tail, lambda d: (d[0], -d[1]), corner):
        # the sum of the walk's displacements: the centroids cancel, which
        # leaves sign * (white vertex - black vertex) per edge, two lifts of
        # one anchor, so a multiple of N
        boundary = []
        edge_indices = []
        orientations = []
        tx = ty = 0
        for idx, sign in walk:
            e = graph.edges[idx]
            edge_indices.append(idx)
            orientations.append(sign)
            boundary.append((e.white, WHITE) if sign > 0 else (e.black, BLACK))
            tx += sign * (e.white_vertex[0] - e.black_vertex[0])
            ty += sign * (e.white_vertex[1] - e.black_vertex[1])
        out.append(
            DimerFace(
                tuple(boundary),
                tuple(edge_indices),
                tuple(orientations),
                H1Class(tx // n, ty // n),
            )
        )
    # torus sanity: V - E + F = 0
    v_count = len(dimer.polytopes)
    e_count = len(graph.edges)
    if v_count - e_count + len(out) != 0:
        raise ValueError("embedding does not close up to a torus")
    return tuple(out)
