"""Exact rational lattice geometry on R^2 and the torus T^2 = R^2/Z^2.

The primitives here carry ``fractions.Fraction`` coordinates: they are the
working type of tropical curves and base diagrams.  Dimer polygons and
Kasteleyn exponents are integer numerators over their own denominators
(see ``dimer``, ``kasteleyn``); ``convex_hull`` works on integer points.
There is no floating point anywhere in the core, so every comparison made
by callers is exact.
"""

from __future__ import annotations

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


V = Vec2  # short constructor alias used heavily in tests and the catalog

ORIGIN = Vec2(Fraction(0), Fraction(0))


def angle_key(v: Vec2):
    """Exact sort key of a nonzero vector's counterclockwise angle from the
    positive x-axis, in [0, 2 pi).

    The half-plane comes first (angles [0, pi) before [pi, 2 pi)); inside a
    half-plane the direction along the x-axis comes first, then minus the
    cotangent, which increases with the angle.  Vectors on one ray get equal
    keys.
    """
    lower = v.y < 0 or (v.y == 0 and v.x < 0)
    return (lower, v.y != 0, -v.x / v.y if v.y else 0)


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


def interior_lattice_points(P: RatPolygon):
    """All points of Z^2 strictly inside a lattice polygon (bounding-box scan)."""
    for v in P.vertices:
        if not v.is_integral():
            raise ValueError("lattice polygon required")
    if P.is_degenerate:
        return []
    xs = [int(v.x) for v in P.vertices]
    ys = [int(v.y) for v in P.vertices]
    found = []
    for ix in range(min(xs) + 1, max(xs)):
        for iy in range(min(ys) + 1, max(ys)):
            if P.contains(Vec2(Fraction(ix), Fraction(iy)), strict=True):
                found.append((ix, iy))
    return found


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
