"""Named example dimers, del-Pezzo fans, and moment polygons.

Every named dimer has a frozen JSON document under ``tropdimer/catalog/``
(generated by ``scripts/generate_catalog.py``) and a programmatic builder;
``load`` reads the frozen file, ``build`` reconstructs from scratch.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction

from .lattice import RatPolygon, Vec2

V = Vec2


DEL_PEZZO_FANS = {
    "cp2": (V(1, 0), V(0, 1), V(-1, -1)),
    "p1p1": (V(1, 0), V(0, 1), V(-1, 0), V(0, -1)),
    "bl1": (V(1, 0), V(1, 1), V(0, 1), V(-1, -1)),
    "bl2": (V(1, 0), V(1, 1), V(0, 1), V(-1, -1), V(0, -1)),
    "bl3": (V(1, 0), V(1, 1), V(0, 1), V(-1, 0), V(-1, -1), V(0, -1)),
}

# Reflexive moment polygons scaled by 3, counterclockwise.  As sets, the
# primitive inward normals of the edges are the DEL_PEZZO_FANS rays for cp2,
# p1p1 and bl3, and the negated rays for bl1 and bl2.
MOMENT_POLYGONS = {
    "cp2": RatPolygon((V(-3, -3), V(6, -3), V(-3, 6))),
    "p1p1": RatPolygon((V(3, 3), V(-3, 3), V(-3, -3), V(3, -3))),
    "bl1": RatPolygon((V(3, 0), V(0, 3), V(-6, 3), V(3, -6))),
    "bl2": RatPolygon((V(3, 0), V(0, 3), V(-6, 3), V(0, -3), V(3, -3))),
    "bl3": RatPolygon((V(3, 0), V(0, 3), V(-3, 3), V(-3, 0), V(0, -3), V(3, -3))),
}


def build_honeycomb() -> DualDimer:
    """Three upward and three downward triangles tiling the torus.

    The polytope order fixes the Kasteleyn row/column order and therefore
    the determinant on the nose: 3 - z1 - z2 - z1^-1*z2^-1.
    """
    from .dimer import BLACK, WHITE, DualDimer, Polytope

    whites = [
        ((0, 0), (2, 1), (1, 2)),
        ((2, 4), (4, 5), (3, 6)),
        ((4, 2), (6, 3), (5, 4)),
    ]
    blacks = [
        ((2, 4), (0, 3), (1, 2)),
        ((6, 6), (4, 5), (5, 4)),
        ((4, 2), (2, 1), (3, 0)),
    ]
    polys = [Polytope(WHITE, p) for p in whites] + [Polytope(BLACK, p) for p in blacks]
    return DualDimer(6, tuple(polys))


def build_pants_min() -> DualDimer:
    """The minimal mirror pair: one triangle of each color."""
    from .dimer import BLACK, WHITE, DualDimer, Polytope

    black = ((1, 0), (0, 1), (-1, -1))
    white = ((-1, 0), (0, -1), (1, 1))
    return DualDimer(2, (Polytope(WHITE, white), Polytope(BLACK, black)))


# Line directions are the zigzag classes of the resulting dimer.  The
# region combinatorics depend on the offsets; these were found by search
# so that every region of the arrangement is uniformly oriented and the
# result is an embedded dimer with the expected face count.
SEED_LINES = {
    "cp2-seed": (((1, 2), (8, 9)), ((1, -1), (2, 9)), ((-2, -1), (5, 9))),
    "p1p1-seed": (
        ((1, 1), (7, 13)),
        ((1, -1), (10, 13)),
        ((-1, -1), (9, 13)),
        ((-1, 1), (1, 13)),
    ),
    "bl1-seed": (
        ((-1, 0), (0, 1)),
        ((-1, -2), (8, 13)),
        ((2, 1), (3, 13)),
        ((0, 1), (0, 1)),
    ),
    "bl2-seed": (
        ((-1, 0), (6, 13)),
        ((-1, -1), (0, 1)),
        ((0, -1), (9, 13)),
        ((1, 0), (1, 13)),
        ((1, 2), (3, 13)),
    ),
    "bl3-seed": (
        ((-1, 0), (1, 11)),
        ((-1, -1), (8, 11)),
        ((0, -1), (1, 11)),
        ((1, 0), (9, 11)),
        ((1, 1), (0, 1)),
        ((0, 1), (9, 11)),
    ),
}


def build_seed(name: str) -> DualDimer:
    from .arrangement import TorusLine, arrangement_dimer

    lines = [
        TorusLine(V(dx, dy), Fraction(*off)) for (dx, dy), off in SEED_LINES[name]
    ]
    return arrangement_dimer(lines)


def build_immersed_hexagon() -> DualDimer:
    """Honeycomb mutated at its first face: two big triangles that overlap
    themselves on the torus."""
    from .dimer import faces
    from .mutation import exact_assignment, mutate_face

    honeycomb = build_honeycomb()
    face = faces(honeycomb)[0]
    return mutate_face(honeycomb, face, exact_assignment(honeycomb)).dimer


_BUILDERS = {
    "honeycomb": build_honeycomb,
    "pants-min": build_pants_min,
    **{name: functools.partial(build_seed, name) for name in SEED_LINES},
    "immersed-hexagon": build_immersed_hexagon,
}

NAMES = tuple(_BUILDERS)

SEED_NAMES = tuple(SEED_LINES)

SEED_FAN = {name: name.removesuffix("-seed") for name in SEED_NAMES}


def build(name: str) -> DualDimer:
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog name {name!r}")
    return _BUILDERS[name]()


def catalog_text(name: str) -> str:
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog name {name!r}")
    path = os.path.join(os.path.dirname(__file__), "catalog", f"{name}.json")
    with open(path, encoding="utf-8") as f:
        return f.read()


def load(name: str) -> DualDimer:
    from .io import parse_dimer

    dimer, _ = parse_dimer(catalog_text(name))
    return dimer
