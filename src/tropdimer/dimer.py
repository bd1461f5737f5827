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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from .lattice import (
    H1Class,
    RatPolygon,
    TorusPoint,
    Vec2,
    angle_key,
    interiors_intersect,
    reduce_mod_lattice,
)
from .tropical import TropicalCurve, make_fan

WHITE = "white"
BLACK = "black"


@dataclass(frozen=True)
class Polytope:
    color: str
    polygon: RatPolygon

    def __post_init__(self):
        if self.color not in (WHITE, BLACK):
            raise ValueError(f"unknown color {self.color!r}")


@dataclass(frozen=True)
class DualDimer:
    """The dimer data; every polygon strictly convex and counterclockwise.

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
            if p.polygon.is_degenerate:
                raise ValueError("degenerate polytope")
            scaled = [(v.x * self.denominator, v.y * self.denominator) for v in p.polygon.vertices]
            if any(x.denominator != 1 or y.denominator != 1 for x, y in scaled):
                raise ValueError("vertex not on the declared lattice")
            if not _strictly_convex([(int(x), int(y)) for x, y in scaled]):
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


def _strictly_convex(points) -> bool:
    """Whether every point of an integer polygon lies strictly left of every
    edge it is not an end of: strictly convex and counterclockwise."""
    n = len(points)
    for i in range(n):
        (ax, ay), (bx, by) = points[i], points[(i + 1) % n]
        for k in range(n):
            if k != i and k != (i + 1) % n:
                cx, cy = points[k]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
                    return False
    return True


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

    @property
    def ok(self) -> bool:
        return self.distinct_ok and self.matching_ok and self.germs_ok

    def lines(self):
        def verdict(flag):
            return "pass" if flag else "FAIL"

        yield f"distinct vertices per color: {verdict(self.distinct_ok)}" + (
            f" offenders={list(self.distinct_offenders)}" if self.distinct_offenders else ""
        )
        yield f"white/black vertex sets match mod Z^2: {verdict(self.matching_ok)}" + (
            f" offenders={list(self.matching_offenders)}" if self.matching_offenders else ""
        )
        yield f"opposite edge germs at matched vertices: {verdict(self.germs_ok)}" + (
            f" offenders={list(self.germ_offenders)}" if self.germ_offenders else ""
        )
        yield "self-intersections: " + ("present" if self.self_intersecting else "none")


def _vertex_map(dimer: DualDimer, color: str):
    """torus point -> (polytope index, stored lift) for one color."""
    out: dict = {}
    clashes = []
    for i in dimer.indices(color):
        for v in dimer.polytopes[i].polygon.vertices:
            t = reduce_mod_lattice(v)
            if t in out:
                clashes.append(t)
            out[t] = (i, v)
    return out, clashes


def _germs(polygon: RatPolygon, v: Vec2):
    """Primitive directions of the two polygon edges leaving vertex v."""
    verts = polygon.vertices
    n = len(verts)
    i = verts.index(v)
    return frozenset(
        {
            (verts[(i + 1) % n] - v).primitive(),
            (verts[(i - 1) % n] - v).primitive(),
        }
    )


def _torus_interiors_intersect(p: RatPolygon, q: RatPolygon, exclude_zero: bool) -> bool:
    pxs = [v.x for v in p.vertices]
    pys = [v.y for v in p.vertices]
    qxs = [v.x for v in q.vertices]
    qys = [v.y for v in q.vertices]

    def irange(pmin, pmax, qmin, qmax):
        # integers strictly inside (pmin - qmax, pmax - qmin): at any other
        # translate the projections of the interiors are disjoint
        return range(math.floor(pmin - qmax) + 1, math.ceil(pmax - qmin))

    for tx in irange(min(pxs), max(pxs), min(qxs), max(qxs)):
        for ty in irange(min(pys), max(pys), min(qys), max(qys)):
            if exclude_zero and tx == 0 and ty == 0:
                continue
            if interiors_intersect(p, q.translate(Vec2(tx, ty))):
                return True
    return False


def validate(dimer: DualDimer) -> ValidationReport:
    return dimer._report


def _validate(dimer: DualDimer) -> ValidationReport:
    white_map, white_clash = dimer._vertex_maps[WHITE]
    black_map, black_clash = dimer._vertex_maps[BLACK]
    distinct_ok = not white_clash and not black_clash

    mismatch = tuple(sorted(set(white_map) ^ set(black_map)))
    matching_ok = not mismatch

    germ_offenders = []
    if matching_ok and distinct_ok:
        for t in white_map:
            wi, wv = white_map[t]
            bi, bv = black_map[t]
            wg = _germs(dimer.polytopes[wi].polygon, wv)
            bg = _germs(dimer.polytopes[bi].polygon, bv)
            if frozenset(-g for g in wg) != bg:
                germ_offenders.append(t)
    germs_ok = matching_ok and distinct_ok and not germ_offenders

    polys = [p.polygon for p in dimer.polytopes]
    selfx = False
    for i in range(len(polys)):
        for j in range(i, len(polys)):
            if _torus_interiors_intersect(polys[i], polys[j], exclude_zero=(i == j)):
                selfx = True
                break
        if selfx:
            break

    return ValidationReport(
        distinct_ok,
        tuple(sorted(set(white_clash + black_clash))),
        matching_ok,
        mismatch,
        germs_ok,
        tuple(sorted(germ_offenders)),
        selfx,
    )


# ---------------------------------------------------------------------------
# the bipartite graph


@dataclass(frozen=True)
class DimerEdge:
    white: int
    black: int
    anchor: TorusPoint
    white_vertex: Vec2  # the white polygon's stored lift of the anchor
    black_vertex: Vec2
    displacement: Vec2  # white centroid -> anchor -> black centroid, lifted
    denominator: int

    @property
    def edge_id(self) -> str:
        ax = self.anchor.coords.x * self.denominator
        ay = self.anchor.coords.y * self.denominator
        return f"w{self.white}-b{self.black}@{int(ax)},{int(ay)}"


@dataclass(frozen=True)
class DimerGraph:
    dimer: DualDimer
    whites: tuple  # polytope indices
    blacks: tuple
    edges: tuple


def build_graph(dimer: DualDimer) -> DimerGraph:
    return dimer._graph


def _build_graph(dimer: DualDimer) -> DimerGraph:
    if not validate(dimer).ok:
        raise ValueError("dimer fails validation; cannot build graph")
    white_map, _ = dimer._vertex_maps[WHITE]
    black_map, _ = dimer._vertex_maps[BLACK]
    edges = []
    for t in sorted(white_map):
        wi, wv = white_map[t]
        bi, bv = black_map[t]
        cw = dimer.polytopes[wi].polygon.centroid()
        cb = dimer.polytopes[bi].polygon.centroid()
        disp = (wv - cw) + (cb - bv)
        edges.append(DimerEdge(wi, bi, t, wv, bv, disp, dimer.denominator))
    return DimerGraph(
        dimer,
        tuple(dimer.indices(WHITE)),
        tuple(dimer.indices(BLACK)),
        tuple(edges),
    )


# ---------------------------------------------------------------------------
# zigzag paths


@dataclass(frozen=True)
class ZigzagStep:
    polytope: int
    start: Vec2  # stored lift on the polygon boundary
    end: Vec2

    @property
    def displacement(self) -> Vec2:
        return self.end - self.start


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
        verts = p.polygon.vertices
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
    darts = _directed_boundary(dimer)
    lookup = {}
    for d in darts:
        key = (reduce_mod_lattice(d.start), d.displacement.primitive())
        if key in lookup:
            raise ValueError("ambiguous zigzag continuation")
        lookup[key] = d

    colors = {i: p.color for i, p in enumerate(dimer.polytopes)}
    successor = {}
    for d in darts:
        key = (reduce_mod_lattice(d.end), d.displacement.primitive())
        nxt = lookup.get(key)
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
        total = Vec2(0, 0)
        for s in cycle:
            total = total + s.displacement
        if not total.is_integral():
            raise ValueError("zigzag cycle does not close on the torus")
        paths.append(ZigzagPath(tuple(cycle), H1Class(int(total.x), int(total.y))))
    return tuple(paths)


def _black_lattice_length(dimer: DualDimer, path: ZigzagPath) -> int:
    total = 0
    n = dimer.denominator
    for s in path.steps:
        if dimer.polytopes[s.polytope].color != BLACK:
            continue
        d = s.displacement
        total += math.gcd(abs(int(d.x * n)), abs(int(d.y * n)))
    return total


def dimer_to_tropical_fan(dimer: DualDimer) -> TropicalCurve:
    """The fan of ray directions read off the zigzag data.

    Each zigzag family contributes the clockwise quarter-turn of its
    traversal direction (the outward normal of its black edges) with
    multiplicity the total lattice length of those black edges, measured
    in (1/N)Z^2.  Calibrated so a single mirror-pair dimer reproduces the
    nonlinearity locus of the dual function of its black polygon.
    """
    rays: dict = {}
    for path in zigzag_paths(dimer):
        cls = path.cls
        if cls.a == 0 and cls.b == 0:
            raise ValueError("null-homologous zigzag has no ray direction")
        direction = Vec2(cls.b, -cls.a).primitive()
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


def face_orbits(darts, tail, reverse, direction):
    """Orbits of the face permutation of a graph embedded in an oriented
    surface: lists of darts in walk order, in the order of their first dart
    in ``darts``.

    ``tail(d)`` is the vertex dart ``d`` leaves, ``reverse(d)`` the dart of
    the same edge traversed backwards, and ``direction(d)`` orders the darts
    leaving a vertex counterclockwise (the rotation system).  A dart is
    followed by the one after its reverse in the rotation at its head.
    """
    rings: dict = {}
    for d in darts:
        rings.setdefault(tail(d), []).append(d)
    after = {}
    for ring in rings.values():
        ring.sort(key=lambda d: angle_key(direction(d)))
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
    centroids = [p.polygon.centroid() for p in dimer.polytopes]

    # darts (edge index, +1 white -> black or -1 back), rotated at each
    # polytope by the exact angle of (own anchor lift - centroid)
    def tail(dart):
        e = graph.edges[dart[0]]
        return e.white if dart[1] > 0 else e.black

    def direction(dart):
        e = graph.edges[dart[0]]
        lift = e.white_vertex if dart[1] > 0 else e.black_vertex
        return lift - centroids[tail(dart)]

    all_darts = [(i, s) for i in range(len(graph.edges)) for s in (+1, -1)]
    out = []
    for walk in face_orbits(all_darts, tail, lambda d: (d[0], -d[1]), direction):
        boundary = []
        edge_indices = []
        orientations = []
        total = Vec2(0, 0)
        for idx, sign in walk:
            e = graph.edges[idx]
            edge_indices.append(idx)
            orientations.append(sign)
            if sign > 0:
                boundary.append((e.white, WHITE))
                total = total + e.displacement
            else:
                boundary.append((e.black, BLACK))
                total = total - e.displacement
        if not total.is_integral():
            raise ValueError("face walk does not close on the torus")
        out.append(
            DimerFace(
                tuple(boundary),
                tuple(edge_indices),
                tuple(orientations),
                H1Class(int(total.x), int(total.y)),
            )
        )
    # torus sanity: V - E + F = 0
    v_count = len(dimer.polytopes)
    e_count = len(graph.edges)
    if v_count - e_count + len(out) != 0:
        raise ValueError("embedding does not close up to a torus")
    return tuple(out)
