import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EMBEDDED, cover, unimodular_image
from tropdimer import catalog
from tropdimer.dimer import (
    BLACK,
    WHITE,
    DualDimer,
    Polytope,
    build_graph,
    dimer_to_tropical_fan,
    edge_weight,
    faces,
    unknown_weight_keys,
    validate,
    zigzag_paths,
)
from tropdimer.lattice import convex_hull
from tropdimer import mutation
from tropdimer.mutation import (
    _non_tree_edges,
    _smith_normal_form,
    _zigzag_chains,
    compare_up_to_unimodular,
    euler_characteristic,
    exact_assignment,
    homology_classes_of_faces,
    mutate_face,
    mutation_directions,
    seed_directions,
)
from tropdimer.lattice import H1Class, UnimodularMap, Vec2
from tropdimer.tropical import fan_equal


def test_euler_characteristic_of_honeycomb(honeycomb):
    # 6 vertices - 9 edges + 3 faces on the torus
    assert euler_characteristic(honeycomb) == 0


@pytest.mark.parametrize("name", catalog.SEED_NAMES)
def test_seed_euler_characteristic_vanishes(name):
    assert euler_characteristic(catalog.build(name)) == 0


def test_mutation_at_each_hexagon_is_immersed(honeycomb):
    weights = exact_assignment(honeycomb)
    fan0 = dimer_to_tropical_fan(honeycomb)
    for face in faces(honeycomb):
        result = mutate_face(honeycomb, face, weights)
        assert result.immersed
        assert validate(result.dimer).ok
        assert len(result.dimer.polytopes) == 2
        assert fan_equal(dimer_to_tropical_fan(result.dimer), fan0)


def test_mutation_rejects_unknown_face(honeycomb):
    weights = exact_assignment(honeycomb)
    foreign = faces(honeycomb)[0]
    with pytest.raises(ValueError, match="face not found"):
        mutate_face(catalog.build("cp2-seed"), foreign, weights)


def test_mutation_directions_of_honeycomb(honeycomb):
    dirs = mutation_directions(honeycomb)
    assert len(dirs) == 3
    assert sum(c.a for c in dirs) == 0 and sum(c.b for c in dirs) == 0


@pytest.mark.parametrize("name", catalog.SEED_NAMES)
def test_seed_matches_fan_directions(name):
    fan = catalog.SEED_FAN[name]
    want = seed_directions(catalog.DEL_PEZZO_FANS[fan])
    got = mutation_directions(catalog.build(name))
    assert compare_up_to_unimodular(want, got) is not None


def test_seed_directions_rejects_unknown_fan():
    with pytest.raises(ValueError, match="unknown fan"):
        seed_directions((Vec2(5, 0), Vec2(-5, 0)))


def test_compare_up_to_unimodular_is_direction_sensitive():
    a = (H1Class(1, 0), H1Class(0, 1), H1Class(-1, -1))
    b = (H1Class(1, 0), H1Class(0, 1), H1Class(1, 1))
    assert compare_up_to_unimodular(a, b) is None
    with pytest.raises(ValueError, match="equal size"):
        compare_up_to_unimodular(a, a + (H1Class(1, 1),))


def test_exact_assignment_is_rational_and_positive(honeycomb):
    weights = exact_assignment(honeycomb)
    assert all(isinstance(w, Fraction) and w >= 0 for w in weights.values())


def exchange_matrix(dimer):
    """eps[i][j]: the sum, over the edges faces i and j share, of face i's
    orientation on that edge.  Every edge lies on exactly two faces, which
    cross it in opposite directions."""
    sides = {}
    for i, face in enumerate(faces(dimer)):
        for e, o in zip(face.edge_indices, face.orientations):
            sides.setdefault(e, []).append((i, o))
    assert sorted(sides) == list(range(len(build_graph(dimer).edges)))
    eps = [[0] * len(faces(dimer)) for _ in faces(dimer)]
    for (i, oi), (j, oj) in sides.values():  # unpacking fails unless two sides
        assert oi == -oj
        eps[i][j] += oi
        eps[j][i] += oj
    return eps


@pytest.mark.parametrize(
    "name, sign",
    [
        ("honeycomb", -1),
        ("cp2-seed", -1),
        ("bl3-seed", -1),
        ("p1p1-seed", 1),
        ("bl1-seed", 1),
        ("bl2-seed", 1),
    ],
)
def test_faces_form_a_lagrangian_mutation_seed(name, sign):
    # The faces are Lagrangian disks whose boundaries meet as their classes
    # do: the exchange matrix is the intersection form det(g_i, g_j) of the
    # face classes, up to one sign per dimer.
    d = catalog.build(name)
    g = homology_classes_of_faces(d)
    eps = exchange_matrix(d)
    assert eps == [[sign * (gi.a * gj.b - gi.b * gj.a) for gj in g] for gi in g]
    if name in ("honeycomb", "cp2-seed"):  # the Markov quiver
        assert {abs(x) for row in eps for x in row} == {0, 3}


# --- the two-walk mutation, kept as an oracle -------------------------------
#
# The earlier `mutate_face` walked its face twice: `cycle_weight` checked
# that consecutive darts chain head to tail and summed the signed weight,
# and `_face_polytope_lifts` summed the plane translations again and
# checked that they close.  `mutate_face` now reads the face in one walk.


def cycle_weight(graph, cycle, weights) -> Fraction:
    """Signed weight of a closed walk: +w on black-to-white traversal,
    -w on white-to-black.

    ``cycle`` is a sequence of (edge index, orientation) with orientation
    +1 for white-to-black.  The empty walk weighs 0.
    """
    if not cycle:
        return Fraction(0)

    def tail(idx, sign):
        e = graph.edges[idx]
        return e.white if sign > 0 else e.black

    def head(idx, sign):
        e = graph.edges[idx]
        return e.black if sign > 0 else e.white

    m = len(cycle)
    for k in range(m):
        if head(*cycle[k]) != tail(*cycle[(k + 1) % m]):
            raise ValueError("walk is not closed")
    total = Fraction(0)
    for idx, sign in cycle:
        w = edge_weight(weights, graph.edges[idx].edge_id)
        total += -w if sign > 0 else w
    return total


def _face_polytope_lifts(dimer, face):
    """Translations making the face's boundary polytopes share vertices
    literally in the plane, walking once around the face."""
    graph = build_graph(dimer)
    offsets = []  # (polytope index, translation) per boundary position
    tx = ty = 0
    for idx, sign in zip(face.edge_indices, face.orientations):
        e = graph.edges[idx]
        offsets.append((e.white if sign > 0 else e.black, (tx, ty)))
        tx += sign * (e.white_vertex[0] - e.black_vertex[0])
        ty += sign * (e.white_vertex[1] - e.black_vertex[1])
    if tx or ty:
        raise ValueError("face walk does not close in the plane")
    return offsets


def two_walk_mutation(dimer, face, weights):
    """(mutated dimer, immersed) by the two walks above, or the message of
    the ValueError raised on the way."""
    try:
        if face not in faces(dimer):
            raise ValueError("face not found")
        graph = build_graph(dimer)
        unknown = unknown_weight_keys(graph, weights)
        if unknown:
            raise ValueError(f"weight for unknown edge {unknown[0]}")
        walk = list(zip(face.edge_indices, face.orientations))
        if cycle_weight(graph, walk, weights) != 0:
            raise ValueError("face not mutable")
        offsets = _face_polytope_lifts(dimer, face)
        boundary = {i for i, _ in offsets}
        points = {WHITE: set(), BLACK: set()}
        for i, (tx, ty) in offsets:
            points[dimer.polytopes[i].color].update(
                (x + tx, y + ty) for x, y in dimer.polytopes[i].vertices
            )
        kept = [p for i, p in enumerate(dimer.polytopes) if i not in boundary]
        hulls = [Polytope(color, convex_hull(points[color])) for color in (WHITE, BLACK)]
        result = DualDimer(dimer.denominator, tuple(kept + hulls))
        report = validate(result)
        if not report.ok:
            raise ValueError("mutation produced an invalid dimer")
        return result, report.self_intersecting
    except ValueError as exc:
        return str(exc)


def one_walk_mutation(dimer, face, weights):
    """The same outcome from `mutate_face`."""
    try:
        result = mutate_face(dimer, face, weights)
    except ValueError as exc:
        return str(exc)
    assert result.replaced_face == face
    return result.dimer, result.immersed


def potential_weights(dimer, potential):
    """1 + p(white) - p(black) on every edge: the potential cancels around
    any closed walk and the 1s cancel in pairs, so every face is mutable."""
    return {
        e.edge_id: Fraction(1 + potential[e.white] - potential[e.black])
        for e in build_graph(dimer).edges
    }


@st.composite
def mutation_cases(draw):
    """An embedded catalog entry, its 1x2 or 2x2 cover or itself, maybe a
    unimodular image of it, and potential weights, one of them bumped,
    dropped or joined by a key that names no edge."""
    name = draw(st.sampled_from(EMBEDDED))
    kx, ky = draw(st.sampled_from([(1, 1), (1, 2), (2, 2)]))
    d = cover(catalog.build(name), kx, ky)
    if draw(st.booleans()):
        d = unimodular_image(d, random.Random(draw(st.integers(0, 10**6))))
    potential = [draw(st.integers(-2, 2)) for _ in d.polytopes]
    weights = potential_weights(d, potential)
    change = draw(st.sampled_from(["none", "none", "bump", "drop", "unknown"]))
    key = draw(st.sampled_from(sorted(weights)))
    if change == "bump":
        weights[key] += 1
    elif change == "drop":
        del weights[key]
    elif change == "unknown":
        weights["w0-b0@bogus"] = Fraction(1)
    return name, d, weights, change


@settings(max_examples=30, deadline=None)
@given(mutation_cases())
def test_one_walk_mutation_agrees_with_the_two_walk_oracle(case):
    name, d, weights, change = case
    # the faces of the entry itself are foreign to its covers and images
    for face in faces(d) + faces(catalog.build(name)):
        got = one_walk_mutation(d, face, weights)
        assert got == two_walk_mutation(d, face, weights)
        if change == "none" and face in faces(d):
            assert got != "face not mutable"


def test_bumping_one_edge_makes_exactly_its_faces_not_mutable(honeycomb):
    weights = potential_weights(honeycomb, [1, -1, 0, 2, 0, 1])
    edge = build_graph(honeycomb).edges[0]
    weights[edge.edge_id] += Fraction(1, 2)
    for face in faces(honeycomb):
        got = one_walk_mutation(honeycomb, face, weights)
        assert got == two_walk_mutation(honeycomb, face, weights)
        assert (got == "face not mutable") == (0 in face.edge_indices)


def test_mutation_names_the_first_edge_with_no_weight(honeycomb):
    graph = build_graph(honeycomb)
    face = faces(honeycomb)[0]
    weights = exact_assignment(honeycomb)
    for idx in reversed(face.edge_indices[1:]):
        del weights[graph.edges[idx].edge_id]
    first = graph.edges[face.edge_indices[1]].edge_id
    with pytest.raises(ValueError, match=f"^no weight for edge {first}$"):
        mutate_face(honeycomb, face, weights)
    assert two_walk_mutation(honeycomb, face, weights) == f"no weight for edge {first}"


# ---------------------------------------------------------------------------
# the dense chain projection that homology_classes_of_faces replaced, kept
# as its oracle: E-long chains, read on the non-tree edges of a forest found
# by union-find on ("w", i) / ("b", j) keys


def _zigzag_walks(dimer, graph):
    """Each zigzag as an integer chain over the graph edges (oriented
    white-to-black)."""
    n = dimer.denominator
    edge_at = {e.anchor: idx for idx, e in enumerate(graph.edges)}
    colors = {i: p.color for i, p in enumerate(dimer.polytopes)}
    chains = []
    for path in zigzag_paths(dimer):
        chain = [0] * len(graph.edges)
        for step in path.steps:
            x, y = step.end
            idx = edge_at[(x % n, y % n)]
            # traversal goes from this step's polytope to the next step's
            sign = 1 if colors[step.polytope] == WHITE else -1
            chain[idx] += sign
        chains.append(chain)
    return chains


def _cycle_coordinates(graph):
    """A projection from closed chains to coordinates on the cycle space,
    via a spanning tree: a cycle is determined by its non-tree entries."""
    n_edges = len(graph.edges)
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    tree = set()
    for idx, e in enumerate(graph.edges):
        ra, rb = find(("w", e.white)), find(("b", e.black))
        if ra != rb:
            parent[ra] = rb
            tree.add(idx)
    non_tree = [i for i in range(n_edges) if i not in tree]
    return non_tree


# the general integer Smith normal form, with its Euclid remainder loop,
# that the edge contractions of _smith_normal_form replaced


def general_smith_normal_form(rows, width):
    """Smith normal form of an integer matrix given as a list of rows.

    Returns (diagonal entries, V) with U*A*V = D; only the right transform
    V (an integer matrix with |det| = 1, as columns) is tracked, since we
    need coordinates on the quotient lattice Z^width / rowspace(A).
    """
    a = [list(r) for r in rows]
    h = len(a)
    v = [[1 if i == j else 0 for j in range(width)] for i in range(width)]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_col(src, dst, k):  # col_dst += k * col_src
        for r in a:
            r[dst] += k * r[src]
        for r in v:
            r[dst] += k * r[src]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def add_row(src, dst, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]

    diag = []
    t = 0
    while t < min(h, width):
        # find a pivot
        pivot = None
        for i in range(t, h):
            for j in range(t, width):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t with row operations
            dirty = False
            for i in range(t + 1, h):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, width):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            for r in a:
                r[t] = -r[t]
            for r in v:
                r[t] = -r[t]
        diag.append(a[t][t])
        t += 1
    return diag, v


def oracle_projection(dimer):
    """(non-tree edges, Smith diagonal of the zigzag rows, its V) through the oracle."""
    graph = build_graph(dimer)
    non_tree = _cycle_coordinates(graph)
    rows = [[chain[i] for i in non_tree] for chain in _zigzag_walks(dimer, graph)]
    diag, v = general_smith_normal_form(rows, len(non_tree))
    return non_tree, diag, v


# the catalog entries and their covers up to 2x2
HOMOLOGY_CASES = [(name, kx, ky) for name in catalog.NAMES
                  for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2))]


@pytest.mark.parametrize("name, kx, ky", HOMOLOGY_CASES)
def test_zigzag_surface_homology_has_no_torsion(name, kx, ky):
    """The zigzag surface is closed and orientable, so the Smith normal form
    of its zigzag rows has only 0 and 1 on the diagonal."""
    _, diag, _ = oracle_projection(cover(catalog.build(name), kx, ky))
    assert set(diag) <= {0, 1}


@pytest.mark.parametrize("name, kx, ky", HOMOLOGY_CASES)
def test_face_classes_agree_with_the_dense_chain_oracle(name, kx, ky):
    """The classes are refused exactly where the oracle's free rank is not
    2, and elsewhere equal the face chains read through its projection."""
    dimer = cover(catalog.build(name), kx, ky)
    non_tree, diag, v = oracle_projection(dimer)
    rank = len([d for d in diag if d != 0])
    if len(non_tree) - rank != 2:
        with pytest.raises(ValueError, match="zigzag surface is not a torus"):
            homology_classes_of_faces(dimer)
        return
    expected = []
    for face in faces(dimer):
        chain = [0] * len(build_graph(dimer).edges)
        for idx, sign in zip(face.edge_indices, face.orientations):
            chain[idx] += sign
        x = [chain[i] for i in non_tree]
        a, b = (sum(x[r] * v[r][c] for r in range(len(non_tree))) for c in (rank, rank + 1))
        expected.append(H1Class(a, b))
    assert homology_classes_of_faces(dimer) == expected


def _contraction_cases():
    """The catalog entries, their 1x2, 2x1, 2x2 and 3x3 covers, and every
    face mutation of the embedded entries that mutate_face accepts."""
    cases = []
    for name in catalog.NAMES:
        base = catalog.build(name)
        cases.append((name, base))
        cases += [(f"{name} {kx}x{ky}", cover(base, kx, ky))
                  for kx, ky in ((1, 2), (2, 1), (2, 2), (3, 3))]
    for name in EMBEDDED:
        base = catalog.build(name)
        weights = exact_assignment(base)
        for k, face in enumerate(faces(base)):
            try:
                cases.append((f"{name} mutated at {k}", mutate_face(base, face, weights).dimer))
            except ValueError:
                pass
    return cases


def test_smith_form_is_a_run_of_edge_contractions():
    """The zigzag rows are an incidence matrix, and contracting one edge per
    step gives exactly the general Smith normal form."""
    cases = _contraction_cases()
    assert len(cases) == 65
    for label, dimer in cases:
        graph = build_graph(dimer)
        non_tree = _cycle_coordinates(graph)
        rows = [[chain[i] for i in non_tree] for chain in _zigzag_walks(dimer, graph)]
        for c in range(len(non_tree)):
            column = sorted(r[c] for r in rows if r[c])
            assert column in ([], [-1], [1], [-1, 1]), label
        diag, want = general_smith_normal_form(rows, len(non_tree))
        assert set(diag) <= {1}, label
        assert _smith_normal_form(rows, len(non_tree)) == want, label


def test_counted_rank_is_the_rank_of_the_zigzag_rows():
    """The zigzags less the graph's components give the rank that
    eliminating the zigzag rows on the non-tree edges gives, and the chains
    are the zigzag walks, on tori and on the surfaces that are no torus
    alike."""
    cases = _contraction_cases() + [
        (f"{name} {kx}x{ky}", cover(catalog.build(name), kx, ky)) for name, kx, ky in HOMOLOGY_CASES
    ]
    for label, dimer in cases:
        graph = build_graph(dimer)
        non_tree = _non_tree_edges(dimer, graph)
        chains = _zigzag_chains(dimer, graph)
        walks = _zigzag_walks(dimer, graph)
        dense = []
        for chain in chains:
            row = [0] * len(graph.edges)
            for idx, sign in chain:
                row[idx] += sign
            dense.append(row)
        assert dense == walks, label
        components = len(dimer.polytopes) - len(graph.edges) + len(non_tree)
        rows = [[w[i] for i in non_tree] for w in walks]
        diag, _ = general_smith_normal_form(rows, len(non_tree))
        assert len(chains) - components == len(diag), label


# every proper cover up to 2x2, the two immersed entries, and their 1x3, 3x1
# and 1x4 covers, whose zigzag surface has free rank 2
NOT_A_TORUS = [(name, kx, ky) for name, kx, ky in HOMOLOGY_CASES if (kx, ky) != (1, 1)] + [
    ("pants-min", 1, 1),
    ("immersed-hexagon", 1, 1),
] + [(name, kx, ky) for name in ("pants-min", "immersed-hexagon")
     for kx, ky in ((1, 3), (3, 1), (1, 4))]


@pytest.mark.parametrize("name, kx, ky", NOT_A_TORUS)
def test_a_surface_that_is_no_torus_is_refused_before_any_elimination(name, kx, ky, monkeypatch):
    def eliminate(rows, width):
        raise AssertionError("the zigzag rows were eliminated")

    def chains(dimer, graph):
        raise AssertionError("the zigzag chains were built")

    monkeypatch.setattr(mutation, "_smith_normal_form", eliminate)
    monkeypatch.setattr(mutation, "_zigzag_chains", chains)
    with pytest.raises(ValueError, match="^zigzag surface is not a torus$"):
        homology_classes_of_faces(cover(catalog.build(name), kx, ky))


# the comparison before it refused classes that do not span the plane, kept
# as the oracle for those that do
def exhaustive_compare_up_to_unimodular(a, b) -> UnimodularMap | None:
    """A unimodular linear map sending multiset ``a`` to multiset ``b``,
    or None.  Exhaustive over ordered pairs; sizes here are at most 6."""
    a = [c if isinstance(c, H1Class) else H1Class(*c) for c in a]
    b = [c if isinstance(c, H1Class) else H1Class(*c) for c in b]
    if len(a) != len(b):
        raise ValueError("multisets must have equal size")

    def multiset(classes):
        return sorted((c.a, c.b) for c in classes)

    target = multiset(b)
    # an independent pair of a
    pair = None
    for i in range(len(a)):
        for j in range(len(a)):
            if a[i].a * a[j].b - a[i].b * a[j].a != 0:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        return UnimodularMap.identity() if multiset(a) == target else None
    i, j = pair
    det_a = a[i].a * a[j].b - a[i].b * a[j].a
    for b1 in b:
        for b2 in b:
            # solve M * a_i = b1, M * a_j = b2
            num = [
                b1.a * a[j].b - b2.a * a[i].b,
                -b1.a * a[j].a + b2.a * a[i].a,
                b1.b * a[j].b - b2.b * a[i].b,
                -b1.b * a[j].a + b2.b * a[i].a,
            ]
            if any(x % det_a for x in num):
                continue
            ma, mb, mc, md = (x // det_a for x in num)
            if abs(ma * md - mb * mc) != 1:
                continue
            m = UnimodularMap(ma, mb, mc, md)
            if multiset([m.apply_class(c) for c in a]) == target:
                return m
    return None


@st.composite
def spanning_class_pairs(draw):
    """(a, b): 1 to 6 classes in [-2, 2]^2 holding an independent pair, and
    either a shuffled unimodular image of them or as many random classes."""
    entry = st.integers(-2, 2)
    a = draw(st.lists(st.tuples(entry, entry), min_size=1, max_size=6))
    assume(any(p[0] * q[1] - p[1] * q[0] for p in a for q in a))
    if draw(st.booleans()):
        m = UnimodularMap.identity()
        for shear in draw(st.lists(st.sampled_from(
                [UnimodularMap(1, 1, 0, 1), UnimodularMap(1, 0, -1, 1),
                 UnimodularMap(0, 1, 1, 0), UnimodularMap(-1, 0, 0, 1)]), max_size=4)):
            m = m.compose(shear)
        b = draw(st.permutations([(m.a * x + m.b * y, m.c * x + m.d * y) for x, y in a]))
    else:
        b = draw(st.lists(st.tuples(entry, entry), min_size=len(a), max_size=len(a)))
    return a, b


@settings(max_examples=200, deadline=None)
@given(spanning_class_pairs())
def test_compare_up_to_unimodular_agrees_with_the_exhaustive_oracle(case):
    a, b = case
    assert compare_up_to_unimodular(a, b) == exhaustive_compare_up_to_unimodular(a, b)


@pytest.mark.parametrize(
    "a, b",
    [(((1, 0),), ((0, 1),)), (((1, 0), (2, 0)), ((0, 1), (0, 2)))],
)
def test_compare_up_to_unimodular_refuses_classes_that_do_not_span(a, b):
    with pytest.raises(ValueError, match="^classes must span the plane$"):
        compare_up_to_unimodular(a, b)
