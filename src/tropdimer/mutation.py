"""Edge weights, face mutation, Euler characteristic, and mutation directions.

Mutation removes the polytopes around a zero-weight disk face and replaces
them by the convex hulls of consistent plane lifts of its white and black
boundary polytopes, both read off in one walk around the face.

Mutation directions are the classes of face boundary cycles.  A face
boundary bounds its own disk on the torus, so its class is taken in the
first homology of the closed surface assembled from the dimer graph with
a disk glued along every zigzag cycle.  That surface is a torus (Euler
count |V| - |E| + #zigzags = 0, free rank 2) for the embedded catalog
entries, whose classes land in Z^2, canonically up to a unimodular change
of basis.  It is no torus for the immersed pants-min and
immersed-hexagon, which count 2, nor for the proper covers of the
embedded entries, which count less than 0; their classes are refused.
Every chain is written on the non-tree edges of one spanning forest of
the graph, which fix a cycle.  Every dart lies on one zigzag, and each
edge is the end of one white step and one black step, entered with
opposite signs; so the zigzag rows are the incidence matrix of a graph
with a vertex per zigzag, the surface's dual graph, which has as many
components as the dimer graph.  Their rank is the number of zigzags minus
that count, so a surface that is no torus is refused before any chain is
built; on a torus their Smith form is a run of edge contractions, every
pivot +-1.
"""

from __future__ import annotations

from fractions import Fraction

from .dimer import (
    BLACK,
    WHITE,
    DimerFace,
    DualDimer,
    Polytope,
    build_graph,
    edge_weight,
    faces,
    join,
    unknown_weight_keys,
    validate,
    zigzag_paths,
)
from .lattice import H1Class, Record, UnimodularMap, Vec2, angle_key, convex_hull


# ---------------------------------------------------------------------------
# weights


def exact_assignment(dimer: DualDimer) -> dict:
    """The constant weight 1 on every edge; zeroes every cycle by parity."""
    graph = build_graph(dimer)
    return {e.edge_id: Fraction(1) for e in graph.edges}


# ---------------------------------------------------------------------------
# mutation


class MutationResult(Record):
    __slots__ = ("dimer", "immersed", "replaced_face")

    def __init__(self, dimer: DualDimer, immersed: bool, replaced_face: DimerFace):
        self.dimer, self.immersed, self.replaced_face = dimer, immersed, replaced_face


def mutate_face(dimer: DualDimer, face: DimerFace, weights) -> MutationResult:
    """Mutate at a face of zero signed weight.

    One walk around the face sums the signed weight (-w on a white-to-black
    edge, +w back) and moves each boundary polytope by the running
    translation, the sum of sign * (white vertex - black vertex) so far,
    which makes consecutive polytopes share their anchor in the plane.
    """
    if face not in faces(dimer):
        raise ValueError("face not found")
    graph = build_graph(dimer)
    unknown = unknown_weight_keys(graph, weights)
    if unknown:
        raise ValueError(f"weight for unknown edge {unknown[0]}")
    total = Fraction(0)
    boundary_indices = set()
    points = {WHITE: set(), BLACK: set()}
    tx = ty = 0
    for idx, sign in zip(face.edge_indices, face.orientations):
        e = graph.edges[idx]
        total -= sign * edge_weight(weights, e.edge_id)
        i, color = (e.white, WHITE) if sign > 0 else (e.black, BLACK)
        boundary_indices.add(i)
        points[color].update((x + tx, y + ty) for x, y in dimer.polytopes[i].vertices)
        tx += sign * (e.white_vertex[0] - e.black_vertex[0])
        ty += sign * (e.white_vertex[1] - e.black_vertex[1])
    if total != 0:
        raise ValueError("face not mutable")

    kept = [p for i, p in enumerate(dimer.polytopes) if i not in boundary_indices]
    new_polys = kept + [
        Polytope(WHITE, convex_hull(points[WHITE])),
        Polytope(BLACK, convex_hull(points[BLACK])),
    ]
    result = DualDimer(dimer.denominator, tuple(new_polys))
    report = validate(result)
    if not report.ok:
        raise ValueError("mutation produced an invalid dimer")
    return MutationResult(result, report.self_intersecting, face)


# ---------------------------------------------------------------------------
# Euler characteristic and mutation directions


def euler_characteristic(dimer: DualDimer) -> int:
    graph = build_graph(dimer)
    return len(dimer.polytopes) - len(graph.edges) + len(faces(dimer))


def _smith_normal_form(rows, width):
    """Smith normal form of the incidence matrix of a graph, given as a list
    of rows with at most one +1 and one -1 in each column.

    Returns V with U*A*V = D; only the right transform V (an integer
    matrix with |det| = 1, as columns) is tracked, since we need coordinates
    on the quotient lattice Z^width / rowspace(A).  Each step contracts one
    edge: its pivot is the first nonzero entry, by rows and then columns,
    and adding the pivot row into the other row, if any, that holds the
    pivot column leaves the incidence matrix of the contracted graph.  So
    every pivot is +-1, every quotient is exact, and the diagonal D is all 1
    up to the rank, which `homology_classes_of_faces` has already counted.
    `homology_classes_of_faces` runs it only on a torus, for the basis its
    V fixes.
    """
    a = [list(r) for r in rows]
    v = [[1 if i == j else 0 for j in range(width)] for i in range(width)]
    for t in range(min(len(a), width)):
        pivot = next(((i, j) for i in range(t, len(a)) for j in range(t, width) if a[i][j]), None)
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        for r in a + v:
            r[t], r[j] = r[j], r[t]
        p = a[t][t]
        for i in range(t + 1, len(a)):
            if a[i][t]:
                k = a[i][t] * p
                a[i] = [x - k * y for x, y in zip(a[i], a[t])]
        # the column operations that clear row t touch no other row of a
        for j in range(t + 1, width):
            if a[t][j]:
                k = a[t][j] * p
                for r in v:
                    r[j] -= k * r[t]
        if p < 0:
            for r in v:
                r[t] = -r[t]
    return v


def _non_tree_edges(dimer: DualDimer, graph) -> list:
    """The edges off the spanning forest of the graph that `join` takes
    over the edges in order; a closed chain is fixed by its entries on
    them."""
    parent = list(range(len(dimer.polytopes)))
    return [idx for idx, e in enumerate(graph.edges) if not join(parent, e.white, e.black)]


def _zigzag_chains(dimer: DualDimer, graph):
    """Each zigzag as its (edge index, +1 from a white polytope or -1)
    pairs, one per step."""
    n = dimer.denominator
    edge_at = {e.anchor: idx for idx, e in enumerate(graph.edges)}
    colors = [p.color for p in dimer.polytopes]
    # a step reaches its edge through the anchor of its end
    return [[(edge_at[s.end[0] % n, s.end[1] % n], 1 if colors[s.polytope] == WHITE else -1)
             for s in path.steps]
            for path in zigzag_paths(dimer)]


def homology_classes_of_faces(dimer: DualDimer):
    """Classes of the face boundary cycles in H_1 of the zigzag-disk
    surface, as H1Class values in an arbitrary (but fixed) basis.

    Requires that surface to be a torus, of free rank 2.  It is closed and
    orientable (each edge lies on one white-polytope and one black-polytope
    zigzag step, entered with opposite signs), so H_1 has no torsion.  Its
    free rank is the number of non-tree edges minus the rank of the zigzag
    rows (each row is a cycle, so restricting it to the non-tree edges
    keeps the rank).  The rows are the incidence matrix of the surface's
    dual graph, a vertex per zigzag and an edge per graph edge, which has
    as many components c as the graph; so their rank is Z - c, counted
    from the zigzags and the spanning forest before any row is built.  An
    immersed dimer's surface is not taken for the torus either, even where
    its free rank is 2 (pants-min at 1x3), so every immersed dimer gets the
    same refusal before `faces` runs.  Only on a torus are the chains built
    and the rows eliminated.
    """
    graph = build_graph(dimer)
    non_tree = _non_tree_edges(dimer, graph)
    components = len(dimer.polytopes) - len(graph.edges) + len(non_tree)
    rank = len(zigzag_paths(dimer)) - components
    if len(non_tree) - rank != 2 or validate(dimer).self_intersecting:
        raise ValueError("zigzag surface is not a torus")
    column = {idx: c for c, idx in enumerate(non_tree)}

    def row(signed_edges):
        """A chain over the white-to-black edges, on the non-tree edges."""
        out = [0] * len(non_tree)
        for idx, sign in signed_edges:
            if idx in column:
                out[column[idx]] += sign
        return out

    v = _smith_normal_form([row(chain) for chain in _zigzag_chains(dimer, graph)], len(non_tree))
    classes = []
    for face in faces(dimer):
        x = row(zip(face.edge_indices, face.orientations))
        a, b = (sum(xr * vr[c] for xr, vr in zip(x, v)) for c in (rank, rank + 1))
        classes.append(H1Class(a, b))
    return classes


def mutation_directions(dimer: DualDimer):
    """The multiset of face-boundary classes (see module docstring)."""
    return sorted(homology_classes_of_faces(dimer))


# ---------------------------------------------------------------------------
# del-Pezzo seeds


def seed_directions(fan_rays):
    """Vanishing-cycle classes of a del-Pezzo Lagrangian seed.

    One class per corner of the moment polygon, i.e. per adjacent pair of
    fan rays r1, r2 in counterclockwise order; the corner eigenray is the
    primitivized sum of the corner's edge directions and the class is its
    quarter turn, which works out to r1 - r2.
    """
    from .catalog import DEL_PEZZO_FANS

    rays = tuple(sorted(Vec2(r.x, r.y).primitive() for r in fan_rays))
    if rays not in {tuple(sorted(rs)) for rs in DEL_PEZZO_FANS.values()}:
        raise ValueError("unknown fan")

    ordered = sorted(rays, key=angle_key)
    out = []
    n = len(ordered)
    for i in range(n):
        d = ordered[i] - ordered[(i + 1) % n]
        p = d.primitive()
        out.append(H1Class(int(p.x), int(p.y)))
    return sorted(out)


def compare_up_to_unimodular(a, b) -> UnimodularMap | None:
    """A unimodular linear map sending multiset ``a`` to multiset ``b``,
    or None.  The first independent pair of ``a`` fixes the map, so it is
    tried against each ordered pair of ``b``; sizes here are at most 6.
    Classes that do not span the plane are refused."""
    a = [c if isinstance(c, H1Class) else H1Class(*c) for c in a]
    b = [c if isinstance(c, H1Class) else H1Class(*c) for c in b]
    if len(a) != len(b):
        raise ValueError("multisets must have equal size")
    pair = next(((p, q) for p in a for q in a if p.a * q.b - p.b * q.a), None)
    if pair is None:
        raise ValueError("classes must span the plane")
    p, q = pair
    det_a = p.a * q.b - p.b * q.a
    target = sorted(b)
    for b1 in b:
        for b2 in b:
            # solve M * p = b1, M * q = b2
            num = [
                b1.a * q.b - b2.a * p.b,
                -b1.a * q.a + b2.a * p.a,
                b1.b * q.b - b2.b * p.b,
                -b1.b * q.a + b2.b * p.a,
            ]
            if any(x % det_a for x in num):
                continue
            ma, mb, mc, md = (x // det_a for x in num)
            if abs(ma * md - mb * mc) != 1:
                continue
            m = UnimodularMap(ma, mb, mc, md)
            if sorted(m.apply_class(c) for c in a) == target:
                return m
    return None
