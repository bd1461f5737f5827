import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EMBEDDED, cover, unimodular_image
from tropdimer import catalog, dimer
from tropdimer.almost_toric import BaseDiagram, trade_all_corners
from tropdimer.arrangement import TorusLine, _egcd, arrangement_dimer
from tropdimer.dimer import (
    DimerGraph,
    DualDimer,
    Polytope,
    ValidationReport,
    ZigzagStep,
    build_graph,
    dimer_to_tropical_fan,
    faces,
    validate,
    zigzag_paths,
)
from tropdimer.io import SchemaError, parse_dimer, serialize_dimer
from tropdimer.kasteleyn import KasteleynMatrix, LaurentPolynomial, kasteleyn_matrix
from tropdimer.lattice import H1Class, Vec2, angle_key, convex_hull
from tropdimer.mutation import exact_assignment, mutate_face
from tropdimer.tropical import CurveEdge, check_balancing, make_fan

V = Vec2


@pytest.mark.parametrize("name", catalog.NAMES)
def test_catalog_passes_validation(name):
    report = validate(catalog.build(name))
    assert report.ok, list(report.lines())


def test_torus_line_refuses_a_direction_that_is_not_primitive():
    with pytest.raises(ValueError, match="line direction must be primitive"):
        TorusLine(V(2, 0), Fraction(0))


def test_arrangement_refuses_regions_that_are_no_dimer():
    # the regions give 10 polytopes with 21 unmatched vertices
    offsets = (2, 9, 7, 9, 10)
    lines = [
        TorusLine(V(dx, dy), Fraction(o, 11))
        for (dx, dy), o in zip(((-1, 2), (2, 1), (-1, 0), (1, 0), (-1, -3)), offsets)
    ]
    with pytest.raises(ValueError, match="valid dual dimer"):
        arrangement_dimer(lines)


def test_honeycomb_is_embedded(honeycomb):
    assert not validate(honeycomb).self_intersecting


def test_pants_min_is_immersed(pants_min):
    assert validate(pants_min).self_intersecting


def translates_overlap(p, q, n, exclude_zero):
    """Brute-force oracle for `dimer._torus_interiors_intersect`: try every
    translate n t of q over the two polygons' extent, with a separating-axis
    test over the edge normals of both polygons at each."""
    pxs, pys = zip(*p)
    qxs, qys = zip(*q)
    # only t with n t strictly inside (min p - max q, max p - min q): at any
    # other translate the projections of the interiors are disjoint
    xs = range((min(pxs) - max(qxs)) // n + 1, -((min(qxs) - max(pxs)) // n))
    ys = range((min(pys) - max(qys)) // n + 1, -((min(qys) - max(pys)) // n))
    axes = []
    for poly in (p, q):
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
            nx, ny = ay - by, bx - ax
            on_p = [nx * x + ny * y for x, y in p]
            on_q = [nx * x + ny * y for x, y in q]
            axes.append((nx * n, ny * n, min(on_p), max(on_p), min(on_q), max(on_q)))
    return any(
        all(
            pmin < qmax + nx * tx + ny * ty and qmin + nx * tx + ny * ty < pmax
            for nx, ny, pmin, pmax, qmin, qmax in axes
        )
        for tx in xs
        for ty in ys
        if not (exclude_zero and tx == ty == 0)
    )


def all_pairs_overlap(d: DualDimer) -> bool:
    """Brute-force `validate(d).self_intersecting`: the oracle on every pair
    of polygons and on every polygon with itself."""
    points = [p.vertices for p in d.polytopes]
    return any(
        translates_overlap(points[i], points[j], d.denominator, i == j)
        for i in range(len(points))
        for j in range(i, len(points))
    )


def polygons(draw, n: int) -> tuple:
    """A strictly convex counterclockwise integer polygon up to 8 n wide
    and high, moved by up to 3 n along each axis."""
    span = draw(st.integers(min_value=1, max_value=4 * n))
    coord = st.integers(min_value=-span, max_value=span)
    points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8, unique=True))
    hull = convex_hull(sorted(points))
    assume(len(hull) >= 3)
    dx, dy = draw(st.tuples(st.integers(-3 * n, 3 * n), st.integers(-3 * n, 3 * n)))
    return tuple((x + dx, y + dy) for x, y in hull)


@st.composite
def polygon_pairs(draw):
    """(p, q, n, same): two polygons, or one twice when ``same``."""
    n = draw(st.integers(min_value=1, max_value=12))
    p = polygons(draw, n)
    if draw(st.booleans()):
        return p, p, n, True
    return p, polygons(draw, n), n, False


@st.composite
def polygon_sets(draw):
    """A dimer of one to six polygons, which need not satisfy the axioms."""
    n = draw(st.integers(min_value=1, max_value=12))
    count = draw(st.integers(min_value=1, max_value=6))
    return DualDimer(n, tuple(Polytope("white", polygons(draw, n)) for _ in range(count)))


@settings(max_examples=400, deadline=None)
@given(polygon_pairs())
def test_overlap_test_agrees_with_translates_oracle(pair):
    p, q, n, same = pair
    assert dimer._torus_interiors_intersect(p, q, n, same) == translates_overlap(p, q, n, same)


@settings(max_examples=200, deadline=None)
@given(polygon_sets())
def test_overlap_verdict_agrees_with_all_pairs_oracle(d):
    # the broad phase may drop a pair only when the oracle finds no overlap
    assert validate(d).self_intersecting == all_pairs_overlap(d)


@pytest.mark.parametrize("transpose", [False, True], ids=["x", "y"])
@pytest.mark.parametrize("left,overlaps", [(1, True), (2, False)])
def test_overlap_across_the_seam_of_the_torus(transpose, left, overlaps):
    # over N = 10, [8, 12] x [0, 4] wraps past 10 to [0, 2]: it meets
    # [1, 5] x [0, 4] there, and [2, 6] x [0, 4] only along a side
    def square(x0, x1):
        corners = [(x, y) for x in (x0, x1) for y in (0, 4)]
        return convex_hull(sorted((y, x) if transpose else (x, y) for x, y in corners))

    d = DualDimer(10, (Polytope("white", square(8, 12)), Polytope("white", square(left, left + 4))))
    assert validate(d).self_intersecting is overlaps
    assert all_pairs_overlap(d) is overlaps


@pytest.mark.parametrize("swap", [False, True], ids=["lower-first", "higher-first"])
def test_broad_phase_keeps_a_pair_whichever_starts_lower(swap):
    # over N = 10, [0, 4]^2 and [2, 6]^2 overlap; the y-extent test must see
    # it whether the first polygon's extent starts below the second's or not
    lower = convex_hull([(0, 0), (4, 0), (0, 4), (4, 4)])
    higher = convex_hull([(2, 2), (6, 2), (2, 6), (6, 6)])
    pair = (higher, lower) if swap else (lower, higher)
    assert validate(DualDimer(10, tuple(Polytope("white", p) for p in pair))).self_intersecting


@pytest.mark.parametrize(
    "vertices,overlaps",
    [
        (((0, 0), (1, 0), (200000, 10)), False),
        (((0, 0), (1, 1), (20000, 20010)), False),
        (((0, 0), (11, 0), (200000, 10)), True),  # its base is wider than N
    ],
    ids=["flat-sliver", "diagonal-sliver", "wide-base-sliver"],
)
def test_slivers_overlap_test_needs_no_translate_loop(vertices, overlaps):
    # width or height far above N = 10: the translate loop would try ~10^4
    # to ~10^7 translates, the lattice count a handful of floor sums
    d = DualDimer(10, (Polytope("white", vertices),))
    assert validate(d).self_intersecting is overlaps
    assert dimer._torus_interiors_intersect(vertices, vertices, 10, True) is overlaps


def test_validation_catches_mismatched_vertex_sets():
    bad = DualDimer(
        2,
        (
            Polytope("white", ((0, 0), (1, 0), (0, 1))),
            Polytope("black", ((0, 0), (1, 1), (0, 1))),
        ),
    )
    report = validate(bad)
    assert not report.ok
    assert not report.matching_ok


def test_validation_catches_germs_that_are_not_opposite():
    # pants-min with its black triangle redrawn on the same torus points:
    # the vertex sets match, but no edge germ of the black triangle is
    # opposite its white one
    bad = DualDimer(
        2,
        (
            Polytope("white", ((-1, 0), (0, -1), (1, 1))),
            Polytope("black", ((1, 0), (1, 1), (0, 1))),
        ),
    )
    report = validate(bad)
    assert report.distinct_ok and report.matching_ok
    assert report.germ_offenders == ((0, 1), (1, 0), (1, 1))
    assert not report.ok


def test_graph_edges_have_stable_ids(honeycomb):
    graph = build_graph(honeycomb)
    assert len(graph.edges) == 9
    ids = [e.edge_id for e in graph.edges]
    assert len(set(ids)) == 9
    for eid in ids:
        assert eid.startswith("w") and "@" in eid


def test_graph_refuses_invalid_dimer():
    bad = DualDimer(
        1,
        (
            Polytope("white", ((0, 0), (1, 0), (0, 1))),
            Polytope("black", ((0, 0), (1, 0), (1, 1))),
        ),
    )
    with pytest.raises(ValueError, match="fails validation"):
        build_graph(bad)


@pytest.mark.parametrize("name", catalog.NAMES)
def test_every_valid_dimer_has_as_many_whites_as_blacks(name):
    """Matched corners are opposite, so equal in angle, and every corner is
    matched: the sums of (m - 2) pi over the white and over the black
    polygons agree, as do the sums of m, so the counts agree.  Checked on
    the covers, their unimodular images and the accepted face mutations."""
    rng = random.Random(name)
    dimers = []
    for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        base = cover(catalog.build(name), kx, ky)
        dimers += [base, unimodular_image(base, rng)]
        if not validate(base).self_intersecting and kx * ky <= 2:
            weights = exact_assignment(base)
            for face in faces(base):
                try:
                    dimers.append(mutate_face(base, face, weights).dimer)
                except ValueError:
                    pass
    for d in dimers:
        assert validate(d).ok
        graph = build_graph(d)
        assert len(graph.whites) == len(graph.blacks)


def test_each_stage_is_computed_once_per_dimer(honeycomb):
    for stage in (validate, build_graph, zigzag_paths, faces):
        assert stage(honeycomb) is stage(honeycomb)
    assert isinstance(zigzag_paths(honeycomb), tuple)
    assert isinstance(faces(honeycomb), tuple)


def test_a_stage_that_raises_keeps_nothing():
    immersed = catalog.build("immersed-hexagon")
    for _ in range(2):
        with pytest.raises(ValueError, match="immersed"):
            faces(immersed)
        assert faces.__name__ not in vars(immersed)
    bad = DualDimer(
        1,
        (
            Polytope("white", ((0, 0), (1, 0), (0, 1))),
            Polytope("black", ((0, 0), (1, 0), (1, 1))),
        ),
    )
    with pytest.raises(ValueError, match="fails validation"):
        build_graph(bad)
    assert build_graph.__name__ not in vars(bad)
    assert vars(bad)[validate.__name__] is validate(bad)


def test_dimer_refuses_a_denominator_that_is_no_positive_int_and_no_polytopes(honeycomb):
    def unread():
        raise AssertionError("polytopes read before the denominator was checked")
        yield

    for den in (6.0, True, 0):
        with pytest.raises(ValueError, match="denominator must be a positive integer"):
            DualDimer(den, unread())
    with pytest.raises(ValueError, match="polytopes must be a nonempty list"):
        DualDimer(1, ())
    assert DualDimer(6, honeycomb.polytopes) == honeycomb


def test_zigzags_and_fan_never_validate(honeycomb, monkeypatch):
    def no_overlap_test(*args, **kwargs):
        raise AssertionError("overlap test ran")

    monkeypatch.setattr(dimer, "_torus_interiors_intersect", no_overlap_test)
    bad = DualDimer(
        2,
        (
            Polytope("white", ((0, 0), (1, 0), (0, 1))),
            Polytope("black", ((0, 0), (1, 1), (0, 1))),
        ),
    )
    with pytest.raises(ValueError, match="zigzag continuation missing"):
        zigzag_paths(bad)
    assert len(zigzag_paths(honeycomb)) == 3
    assert check_balancing(dimer_to_tropical_fan(honeycomb))
    # validate does reach the overlap test: cp2-seed has pairs of polygons
    # whose extents meet on the torus (honeycomb's only touch at vertices)
    with pytest.raises(AssertionError, match="overlap test ran"):
        validate(catalog.build("cp2-seed"))


@pytest.mark.parametrize(
    "vertices",
    [
        ((0, 0), (0, 4), (4, 0)),  # clockwise
        ((0, 0), (2, 0), (4, 0), (0, 4)),  # collinear vertex
        ((0, 0), (4, 0), (4, 4), (2, 1), (0, 4)),  # reflex vertex
    ],
)
def test_dimer_refuses_polygons_not_strictly_convex_counterclockwise(vertices):
    with pytest.raises(ValueError, match="strictly convex and counterclockwise"):
        DualDimer(4, (Polytope("white", vertices),))


@pytest.mark.parametrize(
    "vertices,msg",
    [
        (((0, 0), (Fraction(1, 2), 0), (0, 1)), "integer numerators"),
        (((0, 0), (0.5, 0), (0, 1)), "integer numerators"),
        (((0, 0), (True, 0), (0, 1)), "integer numerators"),
        (((0, 0), (1, 0)), "degenerate"),
    ],
    ids=["fraction", "float", "boolean", "two-vertices"],
)
def test_dimer_refuses_vertices_that_are_not_three_integer_pairs(vertices, msg):
    with pytest.raises(ValueError, match=msg):
        DualDimer(2, (Polytope("white", vertices),))
    # the same polygon in a document: the JSON form of 1/2 is a string
    pairs = [[str(c) if isinstance(c, Fraction) else c for c in v] for v in vertices]
    polytopes = [{"color": "white", "vertices": pairs}]
    with pytest.raises(SchemaError):
        parse_dimer(json.dumps({"schema": "tropdimer/1", "denominator": 2, "polytopes": polytopes}))


@pytest.mark.parametrize(
    "vertices",
    [(5, (0, 0), (1, 1)), ((1, 2, 3), (0, 0), (1, 1)), ("ab", (0, 0), (1, 1)), 5],
    ids=["int-vertex", "triple", "string", "int-vertices"],
)
def test_polytope_refuses_vertices_that_are_not_integer_pairs(vertices):
    with pytest.raises(ValueError, match="integer numerators"):
        Polytope("white", vertices)


def test_honeycomb_zigzags(honeycomb):
    classes = sorted((p.cls.a, p.cls.b) for p in zigzag_paths(honeycomb))
    assert classes == [(-2, -1), (1, -1), (1, 2)]


def test_pants_min_fan(pants_min):
    fan = dimer_to_tropical_fan(pants_min)
    assert check_balancing(fan)
    expected = make_fan(((V(1, 1), 1), (V(-2, 1), 1), (V(1, -2), 1)))
    got = {(e.ray, e.multiplicity) for e in fan.edges}
    assert got == {(e.ray, e.multiplicity) for e in expected.edges}


def test_honeycomb_fan_multiplicities(honeycomb):
    fan = dimer_to_tropical_fan(honeycomb)
    assert {(tuple(map(int, (e.ray.x, e.ray.y))), e.multiplicity) for e in fan.edges} == {
        ((-1, -1), 3),
        ((2, -1), 3),
        ((-1, 2), 3),
    }
    assert check_balancing(fan)


def vec2_keyed_fan(d: DualDimer):
    """The fan keyed and summed on Vec2 rays, as it was built before it
    worked on int pairs; kept as the oracle."""
    rays: dict = {}
    for path in zigzag_paths(d):
        cls = path.cls
        if cls.a == 0 and cls.b == 0:
            raise ValueError("null-homologous zigzag has no ray direction")
        direction = Vec2(*dimer._primitive(cls.b, -cls.a))
        rays[direction] = rays.get(direction, 0) + dimer._black_lattice_length(d, path)
    return make_fan(sorted(rays.items()))


def test_fan_agrees_with_the_vec2_keyed_oracle():
    """On the catalog, its 1x2, 2x1, 2x2 and 3x3 covers, and every face
    mutation of the embedded entries that mutate_face accepts."""
    cases = []
    for name in catalog.NAMES:
        base = catalog.build(name)
        cases += [cover(base, kx, ky) for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))]
    for name in EMBEDDED:
        base = catalog.build(name)
        weights = exact_assignment(base)
        for face in faces(base):
            try:
                cases.append(mutate_face(base, face, weights).dimer)
            except ValueError:
                pass
    assert len(cases) == 65
    for d in cases:
        assert dimer_to_tropical_fan(d) == vec2_keyed_fan(d), serialize_dimer(d)


def test_faces_undefined_for_immersed(pants_min):
    with pytest.raises(ValueError, match="immersed"):
        faces(pants_min)


def test_honeycomb_has_three_hexagonal_faces(honeycomb):
    fs = faces(honeycomb)
    assert len(fs) == 3
    assert all(len(f.edge_indices) == 6 for f in fs)


@pytest.mark.parametrize("name", EMBEDDED)
def test_every_face_of_an_embedded_dimer_is_null_homologous(name):
    # faces() returns only when V - E + F = 0, which on the torus makes
    # every face a disk, so no face walk drifts by a lattice vector
    for kx in (1, 2, 3):
        for ky in (1, 2, 3):
            d = cover(catalog.build(name), kx, ky)
            for image in (d, unimodular_image(d, random.Random(kx * 3 + ky))):
                assert all(f.cls == H1Class(0, 0) for f in faces(image))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(catalog.NAMES), st.integers(min_value=0, max_value=10**6))
def test_zigzag_classes_sum_to_zero_under_unimodular_change(name, seed):
    d = unimodular_image(catalog.build(name), random.Random(seed))
    paths = zigzag_paths(d)  # needs no validation
    assert sum(p.cls.a for p in paths) == 0
    assert sum(p.cls.b for p in paths) == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fan_balancing_survives_unimodular_change(seed):
    d = unimodular_image(catalog.build("honeycomb"), random.Random(seed))
    assert check_balancing(dimer_to_tropical_fan(d))


def zigzags_by_boundary_walk(d: DualDimer):
    """The earlier zigzag tracer, kept as the oracle of `zigzag_paths`: step
    darts along the polygon boundaries (black counterclockwise, white
    clockwise) keyed by their torus point and a primitive direction
    recomputed per dart, each cycle followed until it returns to its first
    dart; as (steps, class) pairs.  None when the successor map is not a
    permutation, where that walk would not end."""
    n = d.denominator
    darts = []
    for i, p in enumerate(d.polytopes):
        verts = p.vertices if p.color == "black" else tuple(reversed(p.vertices))
        for k in range(len(verts)):
            darts.append(ZigzagStep(i, verts[k], verts[(k + 1) % len(verts)]))

    def key(point, dart):
        dx, dy = dart.displacement
        g = math.gcd(dx, dy)
        return (point[0] % n, point[1] % n, dx // g, dy // g)

    lookup = {}
    for s in darts:
        if key(s.start, s) in lookup:
            raise ValueError("ambiguous zigzag continuation")
        lookup[key(s.start, s)] = s
    successor = {}
    for s in darts:
        nxt = lookup.get(key(s.end, s))
        if nxt is None or d.polytopes[nxt.polytope].color == d.polytopes[s.polytope].color:
            raise ValueError("zigzag continuation missing; dimer is not valid")
        successor[s] = nxt
    if len(set(successor.values())) < len(darts):
        return None
    seen = set()
    paths = []
    for s in sorted(darts, key=lambda s: (s.polytope, s.start, s.end)):
        if s in seen:
            continue
        cycle = [s]
        seen.add(s)
        cur = successor[s]
        while cur != s:
            cycle.append(cur)
            seen.add(cur)
            cur = successor[cur]
        tx = sum(c.end[0] - c.start[0] for c in cycle)
        ty = sum(c.end[1] - c.start[1] for c in cycle)
        paths.append((tuple(cycle), H1Class(tx // n, ty // n)))
    return paths


def faces_by_rotation_rings(d: DualDimer):
    """The earlier face tracer, kept as the oracle of `faces`: the darts
    (edge index, +1 white -> black or -1 back) leaving each polytope sorted
    into a ring by the vertex index of their anchor, and each dart followed
    by the one after its reverse in the ring at its head; as lists of
    darts."""
    graph = build_graph(d)
    n = d.denominator

    def corner(i, anchor):
        return next(
            k for k, (x, y) in enumerate(d.polytopes[i].vertices) if (x % n, y % n) == anchor
        )

    darts = [(idx, s) for idx in range(len(graph.edges)) for s in (1, -1)]
    rings = {}
    for idx, s in darts:
        e = graph.edges[idx]
        rings.setdefault(e.white if s > 0 else e.black, []).append((idx, s))
    after = {}
    for i, ring in rings.items():
        ring.sort(key=lambda dart: corner(i, graph.edges[dart[0]].anchor))
        for k, dart in enumerate(ring):
            after[dart] = ring[(k + 1) % len(ring)]
    seen = set()
    walks = []
    for start in darts:
        if start in seen:
            continue
        walk = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = after[cur[0], -cur[1]]
        walks.append(walk)
    return walks


def arrangement_by_rotation_rings(lines) -> DualDimer:
    """The earlier arrangement builder, kept as the oracle of
    `arrangement_dimer`: crossings, base points and passage lifts as
    `Fraction` points keyed by their representative in [0, 1)^2; the darts
    leaving each crossing sorted by angle into a counterclockwise ring, and
    each dart followed by the one after its reverse in the ring at its
    head.  A dart is (line, start, end, forward)."""

    def torus(p):
        return V(p.x - math.floor(p.x), p.y - math.floor(p.y))

    def base_point(line):
        n = line.direction.rot90()
        return n.scale(Fraction(line.offset) / n.dot(n))

    lines = list(lines)
    if len({(l.direction, l.offset) for l in lines}) != len(lines):
        raise ValueError("repeated line")
    points = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            ni, nj = lines[i].direction.rot90(), lines[j].direction.rot90()
            d = ni.cross(nj)
            for ki in range(abs(int(d))):
                for kj in range(abs(int(d))):
                    bi, bj = lines[i].offset + ki, lines[j].offset + kj
                    p = V((bi * nj.y - bj * ni.y) / d, (bj * ni.x - bi * nj.x) / d)
                    points.setdefault(torus(p), set()).update((i, j))
    passages = {}
    for t, incident in points.items():
        if len(incident) > 2:
            raise ValueError("arrangement has a triple point; perturb offsets")
        for i in incident:
            c = lines[i].direction
            _, mx, my = _egcd(int(c.x), int(c.y))
            s = V(mx, my).dot(t - base_point(lines[i]))
            passages.setdefault(i, []).append((s - math.floor(s), t))
    if len(passages) != len(lines):
        raise ValueError("a line misses every crossing; add directions")
    darts = []
    for i, stops in passages.items():
        stops.sort()
        base, c = base_point(lines[i]), lines[i].direction
        for k, (s0, _) in enumerate(stops):
            s1 = stops[(k + 1) % len(stops)][0] + (k + 1 == len(stops))
            a, b = base + c.scale(s0), base + c.scale(s1)
            darts += [(i, a, b, True), (i, b, a, False)]
    by_key = {(i, torus(a), f): (i, a, b, f) for i, a, b, f in darts}
    rings = {}
    for dart in darts:
        rings.setdefault(torus(dart[1]), []).append(dart)
    after = {}
    for ring in rings.values():
        ring.sort(key=lambda dart: angle_key(dart[2] - dart[1]))
        for k, dart in enumerate(ring):
            after[dart] = ring[(k + 1) % len(ring)]
    regions = []
    for walk in dimer.orbits(darts, lambda d: after[by_key[d[0], torus(d[2]), not d[3]]]):
        walk = [(i, b, a, not f) for i, a, b, f in reversed(walk)]
        pts, here = [], walk[0][1]
        for _, a, b, _ in walk:
            pts.append(here)
            here = here + (b - a)
        if here != walk[0][1]:
            raise ValueError("arrangement region is not a disk")
        senses = {f for *_, f in walk}
        if len(senses) != 1:
            continue
        m = len(pts)
        corners = [
            pts[k]
            for k in range(m)
            if (pts[k] - pts[k - 1]).cross(pts[(k + 1) % m] - pts[k]) != 0
        ]
        regions.append(("black" if senses == {True} else "white", corners))
    den = math.lcm(1, *(q.denominator for _, vs in regions for v in vs for q in (v.x, v.y)))
    result = DualDimer(
        den,
        tuple(
            Polytope(color, tuple((int(v.x * den), int(v.y * den)) for v in vs))
            for color, vs in regions
        ),
    )
    if not validate(result).ok:
        raise ValueError("arrangement regions do not form a valid dual dimer; change offsets")
    return result


@st.composite
def small_dimers(draw):
    """One to six random triangles or quadrilaterals of either color over
    N <= 3 with coordinates in [-3, 3]; most fail the axioms."""
    coord = st.integers(min_value=-3, max_value=3)
    polytopes = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=4, unique=True))
        hull = convex_hull(points)
        assume(len(hull) >= 3)
        polytopes.append(Polytope(draw(st.sampled_from(("white", "black"))), hull))
    return DualDimer(draw(st.integers(min_value=1, max_value=3)), tuple(polytopes))


@settings(max_examples=400, deadline=None)
@given(small_dimers())
def test_zigzags_match_the_boundary_walk_oracle(d):
    # the same steps and classes, or the same refusal: the only pin on the
    # refusals, as every dimer of the CLI corpus is valid
    try:
        expected = zigzags_by_boundary_walk(d)
    except ValueError as refusal:
        with pytest.raises(ValueError) as got:
            zigzag_paths(d)
        assert str(got.value) == str(refusal)
        return
    assume(expected is not None)
    assert [(p.steps, p.cls) for p in zigzag_paths(d)] == expected


def vertex_maps_validation(d: DualDimer) -> ValidationReport:
    """The earlier `validate`, kept as its oracle: per-color vertex maps,
    a table of edge directions, the germs at each vertex as frozensets, and
    the polygons' boxes taken afresh for the broad phase, all in their own
    passes over the vertices."""
    n = d.denominator
    maps = {}
    for color in ("white", "black"):
        out, clashes = {}, []
        for i in d.indices(color):
            for k, (x, y) in enumerate(d.polytopes[i].vertices):
                t = (x % n, y % n)
                if t in out:
                    clashes.append(t)
                out[t] = (i, k)
        maps[color] = (out, clashes)
    directions = tuple(
        tuple(dimer._primitive(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]))
        for vs in (p.vertices for p in d.polytopes)
    )

    def germs(row, k):
        (ax, ay), (bx, by) = row[k], row[k - 1]
        return frozenset(((ax, ay), (-bx, -by)))

    (white_map, white_clash), (black_map, black_clash) = maps["white"], maps["black"]
    mismatch = set(white_map) ^ set(black_map)
    germ_offenders = []
    if not white_clash and not black_clash and not mismatch:
        for t in white_map:
            (wi, wk), (bi, bk) = white_map[t], black_map[t]
            wg, bg = germs(directions[wi], wk), germs(directions[bi], bk)
            if frozenset((-gx, -gy) for gx, gy in wg) != bg:
                germ_offenders.append(t)

    points = [p.vertices for p in d.polytopes]
    boxes = []
    for pts in points:
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        boxes.append((min(xs), max(xs) - min(xs), min(ys), max(ys) - min(ys)))
    candidates = [(i, i) for i, (_, w, _, h) in enumerate(boxes) if w > n or h > n]
    for i, j in dimer._arc_pairs([(x % n, w) for x, w, _, _ in boxes], n):
        (_, _, yi, hi), (_, _, yj, hj) = boxes[i], boxes[j]
        if (yj - yi) % n < hi or (yi - yj) % n < hj:
            candidates.append((i, j))
    overlap = any(
        dimer._torus_interiors_intersect(points[i], points[j], n, exclude_zero=(i == j))
        for i, j in candidates
    )
    return ValidationReport(
        tuple(sorted(set(white_clash + black_clash))),
        tuple(sorted(mismatch)),
        tuple(sorted(germ_offenders)),
        overlap,
        n,
    )


def broken_dimer(rng: random.Random) -> DualDimer:
    """A catalog entry or a cover of one, with up to three edits that may
    break an axiom or make polygons overlap: a polygon's vertices moved to
    other lifts of the same torus points (germ offenders, overlaps), a
    polygon translated by N, dropped (unmatched vertices), copied
    (clashes, overlaps) or recolored."""
    base = catalog.build(rng.choice(catalog.NAMES))
    d = cover(base, rng.randint(1, 2), rng.randint(1, 2)) if rng.random() < 0.3 else base
    n, polytopes = d.denominator, list(d.polytopes)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(polytopes))
        p = polytopes[i]
        edit = rng.choice(("relift", "translate", "drop", "copy", "recolor"))
        if edit == "relift":
            moved = [(x + n * rng.randint(-1, 1), y + n * rng.randint(-1, 1)) for x, y in p.vertices]
            hull = convex_hull(moved)
            if len(hull) == len(moved):
                k = rng.randrange(len(hull))
                polytopes[i] = Polytope(p.color, hull[k:] + hull[:k])
        elif edit == "translate":
            tx, ty = n * rng.randint(-2, 2), n * rng.randint(-2, 2)
            polytopes[i] = Polytope(p.color, [(x + tx, y + ty) for x, y in p.vertices])
        elif edit == "drop" and len(polytopes) > 1:
            del polytopes[i]
        elif edit == "copy":
            polytopes.append(Polytope(rng.choice(("white", "black")), p.vertices))
        elif edit == "recolor":
            polytopes[i] = Polytope("black" if p.color == "white" else "white", p.vertices)
    return DualDimer(n, tuple(polytopes))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(0, 10**6).map(lambda seed: broken_dimer(random.Random(seed))),
    polygon_sets(),
    small_dimers(),
))
def test_validation_agrees_with_the_vertex_maps_oracle(d):
    assert validate(d) == vertex_maps_validation(d), serialize_dimer(d)


def test_the_broken_dimers_reach_every_verdict():
    dimers = [broken_dimer(random.Random(seed)) for seed in range(200)]
    reports = [vertex_maps_validation(d) for d in dimers]
    assert any(r.distinct_offenders for r in reports)
    assert any(r.matching_offenders for r in reports)
    assert any(r.germ_offenders for r in reports)
    assert any(r.self_intersecting for r in reports)
    assert any(not r.self_intersecting for r in reports)
    assert any(r.ok for r in reports)
    assert [validate(d) for d in dimers] == reports


@pytest.mark.parametrize("name", catalog.NAMES)
def test_walks_match_the_earlier_tracers_on_covers(name):
    for kx in (1, 2, 3):
        for ky in (1, 2, 3):
            d = cover(catalog.build(name), kx, ky)
            for image in (d, unimodular_image(d, random.Random(kx * 3 + ky))):
                paths = [(p.steps, p.cls) for p in zigzag_paths(image)]
                assert paths == zigzags_by_boundary_walk(image)
                if name in EMBEDDED:
                    walks = [list(zip(f.edge_indices, f.orientations)) for f in faces(image)]
                    assert walks == faces_by_rotation_rings(image)


# ---------------------------------------------------------------------------
# the records are plain classes with value semantics


def test_records_construct_positionally_and_by_keyword_with_their_defaults():
    p, d = V(0, 0), V(1, 1)
    edge = CurveEdge(p, ray=d, multiplicity=2)
    assert edge == CurveEdge(p, None, d, 2) and edge.b is None and edge.is_ray
    assert CurveEdge(p, V(1, 0)).multiplicity == 1 and CurveEdge(p, ray=d).b is None
    poly = LaurentPolynomial((((1, 0), 2), ((0, 1), 1), ((1, 0), -2)))
    assert poly.denominator == 1 and poly.terms == (((0, 1), 1),)
    assert poly == LaurentPolynomial(terms=[((0, 1), 1)], denominator=1)
    assert poly != LaurentPolynomial(poly.terms, 2)
    square = Polytope(color="white", vertices=[[0, 0], [1, 0], [1, 1], [0, 1]])
    assert square.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert DualDimer(denominator=1, polytopes=[square]).polytopes == (square,)


def test_equal_records_hash_alike_and_two_types_with_the_same_values_differ(honeycomb):
    again = catalog.build("honeycomb")
    cp2 = catalog.MOMENT_POLYGONS["cp2"]
    line = (V(1, 2), Fraction(1, 3))
    for a, b in [
        (honeycomb, again),
        (honeycomb.polytopes[0], again.polytopes[0]),
        (build_graph(honeycomb), build_graph(again)),
        (build_graph(honeycomb).edges[0], build_graph(again).edges[0]),
        (validate(honeycomb), validate(again)),
        (zigzag_paths(honeycomb)[0], zigzag_paths(again)[0]),
        (zigzag_paths(honeycomb)[0].steps[0], zigzag_paths(again)[0].steps[0]),
        (faces(honeycomb)[0], faces(again)[0]),
        (dimer_to_tropical_fan(honeycomb), dimer_to_tropical_fan(again)),
        (dimer_to_tropical_fan(honeycomb).edges[0], dimer_to_tropical_fan(again).edges[0]),
        (trade_all_corners(BaseDiagram(cp2)), trade_all_corners(BaseDiagram(cp2))),
        (kasteleyn_matrix(honeycomb), kasteleyn_matrix(again)),
        (
            mutate_face(honeycomb, faces(honeycomb)[0], exact_assignment(honeycomb)),
            mutate_face(again, faces(again)[0], exact_assignment(again)),
        ),
        (TorusLine(*line), TorusLine(*line)),
    ]:
        assert a is not b and a == b and hash(a) == hash(b)
        if a.__class__ is not DualDimer:  # the one record with a __dict__
            assert hash(a) == hash(tuple(getattr(a, s) for s in type(a).__slots__))
    assert hash(honeycomb) == hash((honeycomb.denominator, honeycomb.polytopes))
    values = ((0,), (1,), (), 6)
    assert DimerGraph(*values) != KasteleynMatrix(*values)
    assert KasteleynMatrix(*values) != DimerGraph(*values)
    assert DimerGraph(*values) != values


def test_an_analysed_dimer_equals_and_hashes_like_a_fresh_parse(honeycomb):
    text = serialize_dimer(cover(honeycomb, 2, 1))
    analysed, _ = parse_dimer(text)
    build_graph(analysed), zigzag_paths(analysed), faces(analysed)
    keys = {stage.__name__ for stage in (build_graph, zigzag_paths, faces)}
    assert keys <= vars(analysed).keys()
    fresh, _ = parse_dimer(text)
    assert not keys & vars(fresh).keys()
    assert analysed == fresh and fresh == analysed and hash(analysed) == hash(fresh)
    assert len({analysed, fresh}) == 1
