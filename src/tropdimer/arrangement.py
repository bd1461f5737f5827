"""Dual dimers from oriented line arrangements on the torus.

An oriented line with primitive direction c and offset o is the geodesic
{ p : <rot90(c), p> = o mod 1 } traversed in direction c.  For a generic
arrangement (no triple points, no repeated geodesics) the complement
decomposes into convex regions; a region whose counterclockwise boundary
runs along every line's orientation is a black polytope, one running
against every orientation is white, and the mixed regions are the faces.
At each crossing the two opposite cones that both lines bound with the
same sense are the candidate black and white corners, but the region
holding a cone may be mixed elsewhere, and then the crossing is a vertex of
one color only.  Whether the regions assemble into a valid dual dimer thus
depends on the offsets, and `arrangement_dimer` refuses them when they
do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dimer import BLACK, WHITE, DualDimer, Polytope, orbits, validate
from .lattice import Vec2, angle_key, reduce_mod_lattice


@dataclass(frozen=True)
class TorusLine:
    direction: Vec2  # primitive integer vector
    offset: Fraction

    def __post_init__(self):
        if self.direction.primitive() != self.direction:
            raise ValueError("line direction must be primitive")

    @property
    def normal(self) -> Vec2:
        return self.direction.rot90()

    def base_point(self) -> Vec2:
        n = self.normal
        return n.scale(Fraction(self.offset) / n.dot(n))


def _comonomial(c: Vec2) -> Vec2:
    """An integer covector m with <m, c> = 1 for primitive c."""
    g, x, y = _egcd(int(c.x), int(c.y))
    assert g == 1
    return Vec2(x, y)


def _egcd(a: int, b: int):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _crossings(lines):
    """The passages of each line through the pairwise intersection points:
    line index -> sorted (parameter t in [0,1), torus point)."""
    points = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            li, lj = lines[i], lines[j]
            d = li.normal.cross(lj.normal)
            if d == 0:
                continue
            for ki in range(abs(int(d))):
                for kj in range(abs(int(d))):
                    # solve <n_i,p> = o_i + ki, <n_j,p> = o_j + kj
                    bi = li.offset + ki
                    bj = lj.offset + kj
                    p = Vec2(
                        (bi * lj.normal.y - bj * li.normal.y) / d,
                        (bj * li.normal.x - bi * lj.normal.x) / d,
                    )
                    t = reduce_mod_lattice(p)
                    points.setdefault(t, set()).update((i, j))
    # parameter of each crossing along each of its lines
    passages = {}
    for t, incident in points.items():
        if len(incident) > 2:
            raise ValueError("arrangement has a triple point; perturb offsets")
        for i in incident:
            line = lines[i]
            m = _comonomial(line.direction)
            s = m.dot(t - line.base_point())
            s = s - (s.numerator // s.denominator)
            passages.setdefault(i, []).append((s, t))
    for i in passages:
        passages[i].sort()
    return passages


@dataclass(frozen=True)
class _Dart:
    line: int
    start: Vec2  # plane lift of the start crossing
    end: Vec2
    forward: bool  # True when traversed along the line's orientation


def _darts(lines, passages):
    out = []
    for i, stops in passages.items():
        line = lines[i]
        base = line.base_point()
        m = len(stops)
        for k in range(m):
            s0, _ = stops[k]
            s1, _ = stops[(k + 1) % m]
            if k + 1 == m:
                s1 += 1
            a = base + line.direction.scale(s0)
            b = base + line.direction.scale(s1)
            out.append(_Dart(i, a, b, True))
            out.append(_Dart(i, b, a, False))
    return out


def face_orbits(darts):
    """Orbits of the arrangement's face permutation: closed boundary walks,
    lifted consistently to the plane, in the order of their first dart in
    ``darts``.

    The darts leaving a crossing are ringed in counterclockwise order (the
    rotation system), and a dart is followed by the one after its reverse
    in the ring at its head, so each walk keeps its region on its right.
    The reverse dart is the unique one on the same line leaving the end
    point in the opposite traversal sense.
    """
    by_key = {(d.line, reduce_mod_lattice(d.start), d.forward): d for d in darts}
    rings: dict = {}
    for d in darts:
        rings.setdefault(reduce_mod_lattice(d.start), []).append(d)
    after = {}
    for ring in rings.values():
        ring.sort(key=lambda d: angle_key(d.end - d.start))
        for k, d in enumerate(ring):
            after[d] = ring[(k + 1) % len(ring)]
    return orbits(darts, lambda d: after[by_key[d.line, reduce_mod_lattice(d.end), not d.forward]])


def _unroll(walk):
    """Consistent plane lifts of the walk's corner points; None if the walk
    does not close up (a non-disk region)."""
    pts = []
    here = walk[0].start
    for d in walk:
        pts.append(here)
        here = here + (d.end - d.start)
    drift = here - walk[0].start
    if not drift.is_zero():
        return None
    return pts


def arrangement_dimer(lines) -> DualDimer:
    """The dual dimer whose polytopes are the uniformly-oriented regions of
    the arrangement.  Raises ValueError if the arrangement is degenerate or
    its regions fail `validate`."""
    lines = list(lines)
    dirs = {(l.direction, l.offset) for l in lines}
    if len(dirs) != len(lines):
        raise ValueError("repeated line")
    passages = _crossings(lines)
    if len(passages) != len(lines):
        raise ValueError("a line misses every crossing; add directions")
    regions = []  # (color, rational corners)
    for walk in face_orbits(_darts(lines, passages)):
        # each walk keeps its region on its right: reversed, counterclockwise
        walk = [_Dart(d.line, d.end, d.start, not d.forward) for d in reversed(walk)]
        pts = _unroll(walk)
        if pts is None:
            raise ValueError("arrangement region is not a disk")
        senses = {d.forward for d in walk}
        if len(senses) != 1:
            continue  # mixed region: a dimer face, not a polytope
        color = BLACK if senses == {True} else WHITE
        # drop collinear passage points so vertices are strictly convex
        corners = []
        m = len(pts)
        for k in range(m):
            prev, here, nxt = pts[(k - 1) % m], pts[k], pts[(k + 1) % m]
            if (here - prev).cross(nxt - here) != 0:
                corners.append(here)
        regions.append((color, corners))

    den = 1
    for _, corners in regions:
        for v in corners:
            den = math.lcm(den, v.x.denominator, v.y.denominator)
    polytopes = tuple(
        Polytope(color, tuple((int(v.x * den), int(v.y * den)) for v in corners))
        for color, corners in regions
    )
    dimer = DualDimer(den, polytopes)
    if not validate(dimer).ok:
        raise ValueError("arrangement regions do not form a valid dual dimer; change offsets")
    return dimer
