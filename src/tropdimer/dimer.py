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

Each polygon's corners are read once, into the dimer's one corner table
(`_corners`): per color, torus point -> (polytope, vertex index) and the
points met twice; each edge's primitive direction; each polygon's box
and vertex sum.
Validation, the graph, the zigzags and the faces read that table.  Zigzags
and faces are the `orbits` of step maps on darts that index polygon
vertices: a zigzag dart (polytope, start index, end index) is keyed by its
torus point and its direction; a face walk turns at each polytope to its
next vertex and sorts no rotation ring.

Validation also asks whether two polygon interiors meet on T^2, which
separates embedded dimers from immersed ones.  A broad phase sweeps the
boxes' x-extents around the circle R / N Z and tests the y-extents of each
pair the sweep finds, O(P log P) plus those pairs; the narrow phase counts
points of N Z^2 inside the Minkowski difference of a candidate pair with
the floor sums of `lattice.interior_lattice_count`, O(n log extent) for n
vertices, after one merge of the two polygons' edges in the order of
`lattice.angle_cmp`.  No step loops over translates, so the cost does not
grow with the size of the coordinates.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .lattice import H1Class, Record, Vec2, angle_cmp, interior_lattice_count, strictly_convex

WHITE = "white"
BLACK = "black"


class Polytope(Record):
    """One polygon: its color, white or black, and its vertices, a list or
    tuple of int pairs over the denominator N of the dimer that holds it."""

    __slots__ = ("color", "vertices")

    def __init__(self, color: str, vertices: tuple):
        if color not in (WHITE, BLACK):
            raise ValueError("color must be 'white' or 'black'")
        refusal = "vertices must be pairs of integer numerators"
        if not isinstance(vertices, (list, tuple)):
            raise ValueError(refusal)
        pairs = []
        for v in vertices:
            if not (isinstance(v, (list, tuple)) and len(v) == 2
                    and type(v[0]) is int and type(v[1]) is int):
                raise ValueError(refusal)
            pairs.append(tuple(v))
        self.color = color
        self.vertices = tuple(pairs)


class DualDimer:
    """The dimer data: polytopes of at least 3 vertices, integer pairs over
    N = ``denominator`` >= 1, each polygon strictly convex and counterclockwise.

    Each structural stage of this module is computed at most once per
    instance (see `_stage`).  Equality and hashing read ``denominator`` and
    ``polytopes`` only.
    """

    def __init__(self, denominator: int, polytopes: tuple):
        if type(denominator) is not int or denominator < 1:
            raise ValueError("denominator must be a positive integer")
        self.denominator = denominator
        self.polytopes = polytopes = tuple(polytopes)
        if not polytopes:
            raise ValueError("polytopes must be a nonempty list")
        for p in polytopes:
            if len(p.vertices) < 3:
                raise ValueError("degenerate polytope")
            if not strictly_convex(p.vertices):
                raise ValueError("polytope is not strictly convex and counterclockwise")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.denominator, self.polytopes) == (other.denominator, other.polytopes)

    def __hash__(self):
        return hash((self.denominator, self.polytopes))

    def indices(self, color: str):
        return [i for i, p in enumerate(self.polytopes) if p.color == color]


def _stage(compute):
    """A structural stage: ``compute(dimer)`` runs on first use and is kept
    in ``dimer.__dict__`` under its name; a call that raises keeps nothing."""
    name = compute.__name__

    @functools.wraps(compute)
    def stage(dimer: DualDimer):
        memo = dimer.__dict__
        if name not in memo:
            memo[name] = compute(dimer)
        return memo[name]

    return stage


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


class ValidationReport(Record):
    """The offenders of each axiom, torus points (x % N, y % N) over N =
    ``denominator``, and whether interiors meet; each verdict is read off
    its offenders."""

    __slots__ = (
        "distinct_offenders", "matching_offenders", "germ_offenders",
        "self_intersecting", "denominator",
    )

    def __init__(
        self,
        distinct_offenders: tuple,
        matching_offenders: tuple,
        germ_offenders: tuple,
        self_intersecting: bool,
        denominator: int,
    ):
        self.distinct_offenders, self.matching_offenders = distinct_offenders, matching_offenders
        self.germ_offenders, self.self_intersecting = germ_offenders, self_intersecting
        self.denominator = denominator

    @property
    def distinct_ok(self) -> bool:
        return not self.distinct_offenders

    @property
    def matching_ok(self) -> bool:
        return not self.matching_offenders

    @property
    def germs_ok(self) -> bool:
        """Germs are compared only on distinct, matching vertex sets, so
        this is False, with no offenders, when either of those fails."""
        return self.distinct_ok and self.matching_ok and not self.germ_offenders

    @property
    def ok(self) -> bool:
        return self.germs_ok  # which implies the other two

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


@_stage
def _corners(dimer: DualDimer):
    """The corner table, one pass over each polygon's vertices: for white,
    then black, (torus point -> (polytope, vertex index), the points met
    twice); per polygon, the primitive direction of each edge k -> k + 1,
    its box (x-min, width, y-min, height) and its vertex sum."""
    n = dimer.denominator
    maps = {WHITE: ({}, []), BLACK: ({}, [])}
    directions, boxes, sums = [], [], []
    for i, p in enumerate(dimer.polytopes):
        seen, clashes = maps[p.color]
        vs, row = p.vertices, []
        (xmin, ymin), m = vs[0], len(vs)
        xmax, ymax, sx, sy = xmin, ymin, 0, 0
        for k, (x, y) in enumerate(vs):
            sx += x
            sy += y
            t = (x % n, y % n)
            if t in seen:
                clashes.append(t)
            seen[t] = (i, k)
            bx, by = vs[k + 1 - m]
            dx, dy = bx - x, by - y
            g = math.gcd(dx, dy)
            row.append((dx // g, dy // g))
            if x < xmin:
                xmin = x
            elif x > xmax:
                xmax = x
            if y < ymin:
                ymin = y
            elif y > ymax:
                ymax = y
        directions.append(row)
        boxes.append((xmin, xmax - xmin, ymin, ymax - ymin))
        sums.append((sx, sy))
    return maps[WHITE], maps[BLACK], directions, boxes, sums


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


def _self_intersecting(points, boxes, n: int) -> bool:
    """Whether the interiors of two polygons, or of a polygon and a translate
    of itself, meet on T^2, from their boxes as `_corners` gives them.

    Broad phase: the open x-extents of two polygons must meet on R / n Z,
    which one sweep finds, and so must their y-extents, tested on each pair
    it finds: two open arcs meet when one starts inside the other.  A
    polygon can meet its own translate only if its width or height exceeds
    n.  Narrow phase: the exact lattice count of `_torus_interiors_intersect`
    on the candidate pairs alone.
    """
    candidates = [(i, i) for i, (_, w, _, h) in enumerate(boxes) if w > n or h > n]
    for i, j in _arc_pairs([(x % n, w) for x, w, _, _ in boxes], n):
        (_, _, yi, hi), (_, _, yj, hj) = boxes[i], boxes[j]
        if (yj - yi) % n < hi or (yi - yj) % n < hj:
            candidates.append((i, j))
    return any(
        _torus_interiors_intersect(points[i], points[j], n, exclude_zero=(i == j))
        for i, j in candidates
    )


@_stage
def validate(dimer: DualDimer) -> ValidationReport:
    """The three axioms, checked on the corner table, and whether the dimer
    is immersed: `_self_intersecting` keeps the polygon pairs whose boxes
    meet on both circles of the torus (broad phase) and runs the exact
    lattice count of `_torus_interiors_intersect` on those alone (narrow
    phase).  Near-linear in the number of polygons P on the dimers the
    toolkit makes, whose extents are short against N.  The germs at vertex
    k are the edge directions d_k and -d_(k-1); a black corner is opposite
    a white one exactly when its d_k and d_(k-1) are the white ones negated,
    in order (the other pairing of the germs would make one corner reflex)."""
    (white_map, white_clash), (black_map, black_clash), directions, boxes, _ = _corners(dimer)
    mismatch = white_map.keys() ^ black_map.keys()

    germ_offenders = []
    if not white_clash and not black_clash and not mismatch:
        for t, (wi, wk) in white_map.items():
            bi, bk = black_map[t]
            (ax, ay), (bx, by) = directions[wi][wk], directions[wi][wk - 1]
            if directions[bi][bk] != (-ax, -ay) or directions[bi][bk - 1] != (-bx, -by):
                germ_offenders.append(t)

    n = dimer.denominator
    return ValidationReport(
        tuple(sorted(set(white_clash + black_clash))),
        tuple(sorted(mismatch)),
        tuple(sorted(germ_offenders)),
        _self_intersecting([p.vertices for p in dimer.polytopes], boxes, n),
        n,
    )


# ---------------------------------------------------------------------------
# the bipartite graph


class DimerEdge(Record):
    """One edge, a shared vertex of a white and a black polytope:
    ``anchor`` is that vertex as a torus point (x % N, y % N),
    ``white_vertex`` and ``black_vertex`` are each polygon's stored
    numerators of it, and ``displacement`` runs white centroid -> anchor ->
    black centroid, lifted, over D."""

    __slots__ = ("white", "black", "anchor", "white_vertex", "black_vertex", "displacement")

    def __init__(
        self,
        white: int,
        black: int,
        anchor: tuple,
        white_vertex: tuple,
        black_vertex: tuple,
        displacement: tuple,
    ):
        self.white, self.black, self.anchor = white, black, anchor
        self.white_vertex, self.black_vertex = white_vertex, black_vertex
        self.displacement = displacement

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


class DimerGraph(Record):
    """The white and black polytope indices, the edges, and the denominator
    D = N * lcm of the vertex counts, that of every centroid."""

    __slots__ = ("whites", "blacks", "edges", "denominator")

    def __init__(self, whites: tuple, blacks: tuple, edges: tuple, denominator: int):
        self.whites, self.blacks, self.edges = whites, blacks, edges
        self.denominator = denominator


@_stage
def build_graph(dimer: DualDimer) -> DimerGraph:
    if not validate(dimer).ok:
        raise ValueError("dimer fails validation; cannot build graph")
    (white_map, _), (black_map, _), _, _, sums = _corners(dimer)
    points = [p.vertices for p in dimer.polytopes]
    scale = math.lcm(*map(len, points))  # D / N
    # each polygon's vertex centroid over D
    centroids = [(scale // len(pts) * sx, scale // len(pts) * sy)
                 for pts, (sx, sy) in zip(points, sums)]
    edges = []
    for t in sorted(white_map):
        wi, wk = white_map[t]
        bi, bk = black_map[t]
        w, b = points[wi][wk], points[bi][bk]
        (cwx, cwy), (cbx, cby) = centroids[wi], centroids[bi]
        # (white lift - white centroid) - (black lift - black centroid)
        displacement = scale * (w[0] - b[0]) - cwx + cbx, scale * (w[1] - b[1]) - cwy + cby
        edges.append(DimerEdge(wi, bi, t, w, b, displacement))
    return DimerGraph(
        tuple(dimer.indices(WHITE)),
        tuple(dimer.indices(BLACK)),
        tuple(edges),
        dimer.denominator * scale,
    )


# ---------------------------------------------------------------------------
# zigzag paths


class ZigzagStep(Record):
    """One polygon edge of a zigzag, its ends as stored numerators."""

    __slots__ = ("polytope", "start", "end")

    def __init__(self, polytope: int, start: tuple, end: tuple):
        self.polytope, self.start, self.end = polytope, start, end

    @property
    def displacement(self) -> tuple:
        return (self.end[0] - self.start[0], self.end[1] - self.start[1])


class ZigzagPath(Record):
    __slots__ = ("steps", "cls")

    def __init__(self, steps: tuple, cls: H1Class):
        self.steps, self.cls = steps, cls


def orbits(darts, step):
    """The orbits of the map ``step`` on ``darts``: lists in walk order, in
    the order of their first dart in ``darts``.  A walk stops at a dart it
    has already seen, so it ends whether or not ``step`` is a permutation."""
    seen = set()
    out = []
    for cur in darts:
        orbit = []
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = step(cur)
        if orbit:
            out.append(orbit)
    return out


def join(parent, a, b) -> bool:
    """Merge the classes of ``a`` and ``b`` in the union-find forest
    ``parent``, halving the paths to their roots; False when they were one
    class already.  Taken over a graph's edges in order, the edges that
    join are the one spanning forest that the greedy pick in that order
    gives."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    parent[a] = b
    return a != b


@_stage
def zigzag_paths(dimer: DualDimer):
    """The zigzag cycles, in a fixed order; needs no validation.

    Darts run black polygons counterclockwise and white ones clockwise:
    the boundary of the 2-chain (black polygons minus white ones), so matched
    germs concatenate head to tail and the zigzag classes sum to zero."""
    n = dimer.denominator
    points = [p.vertices for p in dimer.polytopes]
    keys = {}  # dart -> (torus point, direction) of its start and of its end
    for i, (p, directions) in enumerate(zip(dimer.polytopes, _corners(dimer)[2])):
        for k, (dx, dy) in enumerate(directions):
            s, e = k, (k + 1) % len(p.vertices)
            if p.color == WHITE:
                s, e, dx, dy = e, s, -dx, -dy
            (sx, sy), (ex, ey) = points[i][s], points[i][e]
            keys[i, s, e] = ((sx % n, sy % n, dx, dy), (ex % n, ey % n, dx, dy))

    lookup = {start: d for d, (start, _) in keys.items()}
    if len(lookup) < len(keys):
        raise ValueError("ambiguous zigzag continuation")
    successor = {d: lookup.get(end) for d, (_, end) in keys.items()}
    colors = [p.color for p in dimer.polytopes]
    if any(nxt is None or colors[nxt[0]] == colors[d[0]] for d, nxt in successor.items()):
        raise ValueError("zigzag continuation missing; dimer is not valid")

    paths = []
    darts = sorted(keys, key=lambda d: (d[0], points[d[0]][d[1]]))
    for cycle in orbits(darts, successor.__getitem__):
        steps = tuple(ZigzagStep(i, points[i][s], points[i][e]) for i, s, e in cycle)
        # each step ends where the next starts on the torus (the lookup
        # key), so the sum of the displacements is a multiple of N
        tx = sum(s.end[0] - s.start[0] for s in steps)
        ty = sum(s.end[1] - s.start[1] for s in steps)
        paths.append(ZigzagPath(steps, H1Class(tx // n, ty // n)))
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
        direction = _primitive(cls.b, -cls.a)
        rays[direction] = rays.get(direction, 0) + _black_lattice_length(dimer, path)
    # int pairs sort as the Vec2s built from them
    return make_fan((Vec2(*d), m) for d, m in sorted(rays.items()))


# ---------------------------------------------------------------------------
# faces of the embedded graph


class DimerFace(Record):
    """A disk face: ``boundary`` alternates (polytope index, color) around
    it, ``edge_indices`` index ``build_graph(...).edges`` in the same order,
    and ``orientations`` holds +1 for a white->black crossing, -1 otherwise."""

    __slots__ = ("boundary", "edge_indices", "orientations", "cls")

    def __init__(self, boundary: tuple, edge_indices: tuple, orientations: tuple, cls: H1Class):
        self.boundary, self.edge_indices = boundary, edge_indices
        self.orientations, self.cls = orientations, cls


@_stage
def faces(dimer: DualDimer):
    """Darts are (edge index, +1 white -> black or -1 back).  Every vertex of
    a valid dimer's polytope is an anchor, listed in rotation order."""
    graph = build_graph(dimer)  # refuses an invalid dimer
    if validate(dimer).self_intersecting:
        raise ValueError("faces undefined for immersed dimer")
    n = dimer.denominator
    (white_map, _), (black_map, _) = _corners(dimer)[:2]
    ends = [(white_map[e.anchor], black_map[e.anchor]) for e in graph.edges]
    edge_at = {end: idx for idx, pair in enumerate(ends) for end in pair}

    def step(dart):
        i, k = ends[dart[0]][dart[1] > 0]  # (polytope, vertex index) of the head
        return (edge_at[i, (k + 1) % len(dimer.polytopes[i].vertices)], -dart[1])

    all_darts = [(i, s) for i in range(len(graph.edges)) for s in (+1, -1)]
    out = []
    for walk in orbits(all_darts, step):
        # the sum of the walk's displacements: the centroids cancel, which
        # leaves sign * (white vertex - black vertex) per edge, two lifts of
        # one anchor, so a multiple of N
        boundary = []
        tx = ty = 0
        for idx, sign in walk:
            e = graph.edges[idx]
            boundary.append((e.white, WHITE) if sign > 0 else (e.black, BLACK))
            tx += sign * (e.white_vertex[0] - e.black_vertex[0])
            ty += sign * (e.white_vertex[1] - e.black_vertex[1])
        edge_indices, orientations = zip(*walk)
        cls = H1Class(tx // n, ty // n)
        out.append(DimerFace(tuple(boundary), edge_indices, orientations, cls))
    # torus sanity: V - E + F = 0
    if len(dimer.polytopes) - len(graph.edges) + len(out) != 0:
        raise ValueError("embedding does not close up to a torus")
    return tuple(out)
