"""Exact planar lattice geometry on R^2 and the torus T^2 = R^2/Z^2.

This module is the one home of the planar geometry the toolkit shares:
the angle order of directions (`angle_cmp`, and `angle_key` built on it),
strict convexity, the convex hull of integer points, and the count of
lattice points inside a convex polygon (`interior_lattice_count`, by floor
sums).  These functions take (x, y) pairs, as the dimer pipeline keeps its
polygons; the types carry ``fractions.Fraction`` coordinates and are the
working type of tropical curves and base diagrams.  There is no floating
point anywhere in the core, so every comparison made by callers is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction


@dataclass(frozen=True, order=True)
class Vec2:
    """A point of R^2, a displacement, or an exponent/covector."""

    x: Rat
    y: Rat

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scale(self, k) -> "Vec2":
        k = Fraction(k)
        return Vec2(self.x * k, self.y * k)

    def dot(self, other: "Vec2") -> Rat:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> Rat:
        return self.x * other.y - self.y * other.x

    def rot90(self) -> "Vec2":
        """Counterclockwise quarter turn."""
        return Vec2(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def primitive(self) -> "Vec2":
        """The primitive integer vector on the same ray through the origin.

        Defined for any nonzero rational vector: clear denominators, then
        divide by the gcd of the entries.
        """
        if self.is_zero():
            raise ValueError("zero vector has no primitive direction")
        den = math.lcm(self.x.denominator, self.y.denominator)
        nx, ny = int(self.x * den), int(self.y * den)
        g = math.gcd(abs(nx), abs(ny))
        return Vec2(Fraction(nx, g), Fraction(ny, g))

    def __repr__(self):
        return f"({self.x}, {self.y})"


ORIGIN = Vec2(Fraction(0), Fraction(0))


def angle_cmp(u, v) -> int:
    """-1, 0 or 1 as the counterclockwise angle of the nonzero vector
    ``u = (x, y)`` from the positive x-axis, in [0, 2 pi), is less than,
    equal to or greater than that of ``v``.

    The half-plane decides first (angles [0, pi) before [pi, 2 pi)); inside
    one half-plane the sign of the cross product does, with no division.
    Vectors on one ray compare equal.
    """
    hu = u[1] < 0 or (u[1] == 0 and u[0] < 0)
    hv = v[1] < 0 or (v[1] == 0 and v[0] < 0)
    if hu != hv:
        return 1 if hu else -1
    c = u[0] * v[1] - u[1] * v[0]
    return (c < 0) - (c > 0)


_angle_key = functools.cmp_to_key(angle_cmp)


def angle_key(v: Vec2):
    """Sort key of a nonzero vector's counterclockwise angle, by
    `angle_cmp`."""
    return _angle_key((v.x, v.y))


def reduce_mod_lattice(p: Vec2) -> Vec2:
    """The representative of ``p`` mod Z^2 in the fundamental domain [0,1)^2."""
    return Vec2(p.x - math.floor(p.x), p.y - math.floor(p.y))


@dataclass(frozen=True, order=True)
class H1Class:
    """A first-homology class of the two-torus, written <a, b>."""

    a: int
    b: int

    def __add__(self, other: "H1Class") -> "H1Class":
        return H1Class(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "H1Class":
        return H1Class(-self.a, -self.b)

    def as_vec(self) -> Vec2:
        return Vec2(Fraction(self.a), Fraction(self.b))

    def __repr__(self):
        return f"<{self.a},{self.b}>"


# ---------------------------------------------------------------------------
# convex polygons


def _orient(a: Vec2, b: Vec2, c: Vec2) -> Rat:
    """Twice the signed area of triangle abc (positive = counterclockwise)."""
    return (b - a).cross(c - a)


@dataclass(frozen=True)
class RatPolygon:
    """A convex polygon with rational vertices, counterclockwise.

    Degenerate shapes (a single point or a segment) are representable and
    flagged via :meth:`is_degenerate`; constructors that need a genuine
    2-polytope must check the flag themselves.
    """

    vertices: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise ValueError("empty point set")

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) < 3

    def edges(self):
        """Directed edges (v_i, v_{i+1}) in counterclockwise order."""
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def area2(self) -> Rat:
        total = Fraction(0)
        for a, b in self.edges():
            total += a.cross(b)
        return total

    def contains(self, p: Vec2, strict: bool = False) -> bool:
        if self.is_degenerate:
            if strict:
                return False
            return on_segment(p, self.vertices[0], self.vertices[-1])
        for a, b in self.edges():
            s = _orient(a, b, p)
            if s < 0 or (strict and s == 0):
                return False
        return True

    def __repr__(self):
        return "Poly[" + ", ".join(repr(v) for v in self.vertices) + "]"


def strictly_convex(points) -> bool:
    """Whether every point of a polygon, given as (x, y) pairs of ints or
    Fractions, lies strictly left of every edge it is not an end of:
    strictly convex and counterclockwise (vacuously so below 3 points).

    One pass: every turn is a strict left turn, and the edge directions
    wrap once around the circle in `angle_cmp` order (a star polygon, from
    5 vertices on, turns left throughout but wraps more than once)."""
    if len(points) < 3:
        return True
    (px, py), (ax, ay) = points[-2], points[-1]
    ux, uy = ax - px, ay - py
    wraps = 0
    for bx, by in points:
        vx, vy = bx - ax, by - ay
        if ux * vy - uy * vx <= 0:
            return False
        wraps += angle_cmp((ux, uy), (vx, vy)) > 0
        ax, ay, ux, uy = bx, by, vx, vy
    return wraps == 1


def convex_hull(points) -> tuple:
    """Exact convex hull (monotone chain) of integer pairs, as a tuple of
    integer pairs in counterclockwise order.

    Collinear boundary points are dropped, so the vertex list is strictly
    convex.  One point gives that point alone, a collinear set the two ends
    of its segment.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return (pts[0],)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        return (pts[0], pts[-1])
    return tuple(ring)


def _floor_sum(count: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a i + b) / m) over i in range(count), for m > 0, by
    the Euclid-like recursion: O(log m) steps whatever the size of a and b."""
    total = 0
    while count:
        q, a = divmod(a, m)
        total += q * (count * (count - 1) // 2)
        q, b = divmod(b, m)
        total += q * count
        top = a * count + b
        if top < m:
            break
        count, b = divmod(top, m)
        m, a = a, m
    return total


def interior_lattice_count(edges, n: int) -> int:
    """The number of points of n Z^2 strictly inside the convex polygon with
    these counterclockwise edges (x0, y0, x1, y1), integers.

    Column n a holds the integers strictly between L(n a) / n and U(n a) / n,
    where L and U are the lower and upper chains; summed over the columns
    strictly inside the x-extent that is sum ceil(U / n) - floor(L / n) - 1.
    Each non-vertical edge gives one floor sum over the columns in its
    half-open x-range; an upper edge is reflected in the x-axis, since
    ceil(u) = -floor(-u).  O(edges * log extent), whatever the size of the
    coordinates.
    """
    xmin = min(e[0] for e in edges)
    xmax = max(e[0] for e in edges)
    first = xmin // n + 1  # the columns are first <= a < ceil(xmax / n)
    total = -max(0, -(-xmax // n) - first)
    for x0, y0, x1, y1 in edges:
        if x0 > x1:  # an upper edge
            x0, y0, x1, y1 = x1, -y1, x0, -y0
        elif x0 == x1:
            continue
        lo = max(-(-x0 // n), first)  # the columns x0 <= n a < x1
        count = -(-x1 // n) - lo
        if count > 0:
            dx, dy = x1 - x0, y1 - y0
            # floor(L(n a) / n) with L(x) = y0 + dy (x - x0) / dx, at a = lo + i
            total -= _floor_sum(count, n * dx, n * dy, n * dy * lo + y0 * dx - dy * x0)
    return total


# ---------------------------------------------------------------------------
# unimodular affine maps


@dataclass(frozen=True)
class UnimodularMap:
    """An affine map x -> A x + t with A an integer matrix of determinant +-1.

    The translation part is allowed to be rational: cut transitions in base
    diagrams fix a node whose position need not be integral.
    """

    a: int
    b: int
    c: int
    d: int
    t: Vec2 = ORIGIN

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c) != 1:
            raise ValueError("matrix is not unimodular")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply_vector(self, v: Vec2) -> Vec2:
        """Linear part only (directions, homology classes, exponents)."""
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def apply(self, p: Vec2) -> Vec2:
        return self.apply_vector(p) + self.t

    def apply_class(self, cls: H1Class) -> H1Class:
        w = self.apply_vector(cls.as_vec())
        return H1Class(int(w.x), int(w.y))

    def inverse(self) -> "UnimodularMap":
        s = self.det  # +-1
        ia, ib, ic, id_ = s * self.d, -s * self.b, -s * self.c, s * self.a
        inv_lin = UnimodularMap(ia, ib, ic, id_)
        return UnimodularMap(ia, ib, ic, id_, -inv_lin.apply_vector(self.t))

    def compose(self, other: "UnimodularMap") -> "UnimodularMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.apply_vector(other.t) + self.t,
        )

    @staticmethod
    def identity() -> "UnimodularMap":
        return UnimodularMap(1, 0, 0, 1)


# ---------------------------------------------------------------------------
# segments and dilations


def on_segment(p: Vec2, a: Vec2, b: Vec2) -> bool:
    """Is p on the closed segment ab?"""
    return _orient(a, b, p) == 0 and (a - p).dot(b - p) <= 0


def dilate(P: RatPolygon, k) -> RatPolygon:
    return RatPolygon(tuple(v.scale(k) for v in P.vertices))


def unit_triangle() -> RatPolygon:
    return RatPolygon((ORIGIN, Vec2(1, 0), Vec2(0, 1)))
