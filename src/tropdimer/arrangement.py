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

The construction runs on integer numerators over one denominator N, chosen
so that every crossing, base point, line parameter and corner lies in
(1/N) Z^2.  A dart is a passage ``(line, stop, forward)`` between
consecutive crossings of one line.  Exactly two lines meet at a crossing,
so the dart after a reverse dart u there, counterclockwise, is the other
line's dart w with u x w > 0: one cross product, no sorted rotation ring.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dimer import BLACK, WHITE, DualDimer, Polytope, orbits, validate
from .lattice import Record, Vec2


class TorusLine(Record):
    """The oriented line with primitive integer ``direction`` and
    ``offset``."""

    __slots__ = ("direction", "offset")

    def __init__(self, direction: Vec2, offset: Fraction):
        if direction.primitive() != direction:
            raise ValueError("line direction must be primitive")
        self.direction, self.offset = direction, offset


def _egcd(a: int, b: int):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _egcd(b, a % b)
    return (g, y, x - (a // b) * y)


def arrangement_dimer(lines) -> DualDimer:
    """The dual dimer whose polytopes are the uniformly-oriented regions of
    the arrangement.  Raises ValueError if the arrangement is degenerate or
    its regions fail `validate`."""
    lines = list(lines)
    if len({(l.direction, l.offset) for l in lines}) != len(lines):
        raise ValueError("repeated line")
    dirs = [(int(l.direction.x), int(l.direction.y)) for l in lines]
    offsets = [Fraction(l.offset) for l in lines]
    turn = [[cx * dy - cy * dx for dx, dy in dirs] for cx, cy in dirs]  # c_i x c_j
    pairs = [(i, j) for i in range(len(lines)) for j in range(i + 1, len(lines)) if turn[i][j]]
    n = math.lcm(*(o.denominator * (cx * cx + cy * cy) for o, (cx, cy) in zip(offsets, dirs)))
    n *= math.lcm(*(abs(turn[i][j]) for i, j in pairs))
    # on numerators P = n p the line <rot90(c), p> = o + k reads
    # <rot90(c), P> = onum + k n with onum = n o; n makes every division exact
    onum = [o.numerator * (n // o.denominator) for o in offsets]

    incident = {}  # torus point numerators in [0, n)^2 -> the lines through it
    for i, j in pairs:
        (cx, cy), (dx, dy), d = dirs[i], dirs[j], turn[i][j]
        for ki in range(abs(d)):
            for kj in range(abs(d)):
                bi, bj = onum[i] + ki * n, onum[j] + kj * n  # P = (bi c_j - bj c_i) / d
                point = ((bi * dx - bj * cx) // d % n, (bi * dy - bj * cy) // d % n)
                incident.setdefault(point, set()).update((i, j))
    if any(len(through) > 2 for through in incident.values()):
        raise ValueError("arrangement has a triple point; perturb offsets")
    order = list(dict.fromkeys(k for pair in pairs for k in pair))  # first-crossing order
    if len(order) != len(lines):
        raise ValueError("a line misses every crossing; add directions")

    # each line's base point o rot90(c) / |c|^2 and its crossings by the
    # parameter <m, t - base> mod 1 along c, where <m, c> = 1
    base, stops = {}, {}
    for i in order:
        cx, cy = dirs[i]
        _, mx, my = _egcd(cx, cy)
        q = onum[i] // (cx * cx + cy * cy)
        base[i] = (-cy * q, cx * q)
        stops[i] = sorted(
            ((mx * (tx - base[i][0]) + my * (ty - base[i][1])) % n, (tx, ty))
            for (tx, ty), through in incident.items()
            if i in through
        )
    at = {}  # torus point -> its two (line, stop index) pairs
    for i in order:
        for k, (_, point) in enumerate(stops[i]):
            at.setdefault(point, []).append((i, k))
    meet = {a: b for a, b in at.values()} | {b: a for a, b in at.values()}

    def span(i, k):
        """Parameter length of line i from stop k to the next, times n."""
        here = stops[i]
        return (here[(k + 1) % len(here)][0] - here[k][0]) % n or n

    def step(dart):
        # the reverse of `dart` at its head, turned counterclockwise onto the other line
        i, k, forward = dart
        j, l = meet[i, (k + 1) % len(stops[i]) if forward else k]
        if (turn[i][j] > 0) != forward:
            return (j, l, True)
        return (j, (l - 1) % len(stops[j]), False)

    darts = [(i, k, f) for i in order for k in range(len(stops[i])) for f in (True, False)]
    regions = []  # (color, corner numerators)
    for walk in orbits(darts, step):
        # each walk keeps its region on its right: walk it backward, from
        # the head of its last dart, to go counterclockwise
        i, k, forward = walk[-1]
        s = stops[i][k][0] + (span(i, k) if forward else 0)
        x, y = base[i][0] + dirs[i][0] * s, base[i][1] + dirs[i][1] * s
        pts = []
        for i, k, forward in reversed(walk):
            pts.append((x, y))
            s = span(i, k) if forward else -span(i, k)
            x, y = x - dirs[i][0] * s, y - dirs[i][1] * s
        if (x, y) != pts[0]:
            raise ValueError("arrangement region is not a disk")
        senses = {forward for _, _, forward in walk}
        if len(senses) != 1:
            continue  # mixed region: a dimer face, not a polytope
        # every step turns onto the other line, so every passage point is a corner
        regions.append((WHITE if senses == {True} else BLACK, pts))

    g = math.gcd(n, *(v for _, corners in regions for point in corners for v in point))
    polytopes = tuple(
        Polytope(color, tuple((x // g, y // g) for x, y in corners)) for color, corners in regions
    )
    dimer = DualDimer(n // g, polytopes)
    if not validate(dimer).ok:
        raise ValueError("arrangement regions do not form a valid dual dimer; change offsets")
    return dimer
