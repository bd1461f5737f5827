"""Max-plus tropical polynomials and their nonlinearity loci.

A tropical polynomial is a finite set of affine functions
``q -> coeff + <exponent, q>`` combined by max.  Its nonlinearity locus is
a weighted balanced polyhedral curve; edge multiplicities are lattice
lengths of the dual Newton-subdivision edges, measured in the exponent
lattice (1/D)Z^2 where D clears all exponent denominators.

Concave duals (the mirror family of functions attached to the second
dimer color) are stored by their negated exponent data plus a flag; the
flag negates evaluation but never moves the nonlinearity locus, so all
curve computations ignore it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lattice import RatPolygon, Record, Vec2, interior_lattice_count


class TropicalPolynomial(Record):
    """``terms`` is kept as a sorted tuple of (exponent: Vec2, coefficient:
    Rat); a dict from exponent to coefficient is accepted too."""

    __slots__ = ("terms", "concave")

    def __init__(self, terms: tuple, concave: bool = False):
        if isinstance(terms, dict):
            terms = terms.items()
        items = tuple(sorted((Vec2(a.x, a.y), Fraction(c)) for a, c in terms))
        if not items:
            raise ValueError("polynomial needs at least one term")
        if len({a for a, _ in items}) != len(items):
            raise ValueError("exponents must be pairwise distinct")
        self.terms, self.concave = items, concave


def dual_function(delta: RatPolygon, color: str) -> TropicalPolynomial:
    """The tropical function dual to a polygon.

    ``color="convex"`` takes the vertices as exponents with zero
    coefficients; ``color="concave"`` takes the negated vertices and sets
    the concavity flag.
    """
    if delta.is_degenerate:
        raise ValueError("degenerate polygon has no dual function")
    zero = Fraction(0)
    if color == "convex":
        return TropicalPolynomial(tuple((v, zero) for v in delta.vertices))
    if color == "concave":
        return TropicalPolynomial(tuple((-v, zero) for v in delta.vertices), concave=True)
    raise ValueError(f"unknown duality color {color!r}")


# ---------------------------------------------------------------------------
# curves


class CurveEdge(Record):
    """A segment (both endpoints) or a ray (one endpoint plus direction)."""

    __slots__ = ("a", "b", "ray", "multiplicity")

    def __init__(
        self,
        a: Vec2,
        b: Vec2 | None = None,
        ray: Vec2 | None = None,  # primitive integer direction when b is None
        multiplicity: int = 1,
    ):
        if (b is None) == (ray is None):
            raise ValueError("edge is either a segment or a ray")
        if multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if ray is not None and ray.primitive() != ray:
            raise ValueError("ray direction must be primitive")
        self.a, self.b, self.ray, self.multiplicity = a, b, ray, multiplicity

    @property
    def is_ray(self) -> bool:
        return self.b is None


class TropicalCurve(Record):
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple, edges: tuple):
        self.vertices, self.edges = tuple(vertices), tuple(edges)


def check_balancing(curve: TropicalCurve) -> bool:
    """Whether the germs leaving each listed vertex, primitive direction
    times multiplicity, sum to zero.

    One pass over the edges files each germ under its end, dropping ends
    that are not listed vertices; a second sums each vertex's germs in
    order, so it stops at the first unbalanced vertex, and a zero-length
    segment raises when its vertex is reached."""
    germs = {v: [] for v in curve.vertices}
    for e in curve.edges:
        ends = ((e.a, e.ray),) if e.is_ray else ((e.a, e.b - e.a), (e.b, e.a - e.b))
        for v, d in ends:
            if v in germs:
                germs[v].append((d, e.multiplicity))
    for v in curve.vertices:
        total = Vec2(0, 0)
        for d, m in germs[v]:
            total = total + d.primitive().scale(m)
        if not total.is_zero():
            return False
    return True


def _exponent_denominator(phi: TropicalPolynomial) -> int:
    d = 1
    for a, _ in phi.terms:
        d = math.lcm(d, a.x.denominator, a.y.denominator)
    return d


def nonlinearity_locus(phi: TropicalPolynomial) -> TropicalCurve:
    """The weighted balanced curve where the defining max is not smooth.

    Computed pairwise: for every pair of terms the tie line is intersected
    with the region where the pair is dominant; a piece is emitted only
    when the pair spans the full dual subdivision edge, with multiplicity
    the lattice length of that edge.
    """
    terms = phi.terms
    den = _exponent_denominator(phi)
    vertices: set = set()
    edges = []
    for i, (ai, ci) in enumerate(terms):
        for j in range(i + 1, len(terms)):
            aj, cj = terms[j]
            u = ai - aj  # tie: <u, q> = cj - ci; nonzero, the exponents are distinct
            p0 = u.scale(Fraction(cj - ci) / u.dot(u))
            d = u.rot90().primitive()
            # ci + <ai, q> >= ck + <ak, q> along q = p0 + t d, for each other k:
            # slope * t + const >= 0
            bounds = []
            for k, (ak, ck) in enumerate(terms):
                if k != i and k != j:
                    w = ai - ak
                    bounds.append((w.dot(d), w.dot(p0) + ci - ck))
            if any(slope == 0 and const < 0 for slope, const in bounds):
                continue
            lo = max((-const / slope for slope, const in bounds if slope > 0), default=None)
            hi = min((-const / slope for slope, const in bounds if slope < 0), default=None)
            if lo is not None and hi is not None and lo >= hi:
                continue
            # witness point in the relative interior of the piece: the mean
            # of its finite ends, one step inside from an open one
            ends = [t for t in (lo, hi) if t is not None]
            tw = sum(ends, Fraction(0)) / max(len(ends), 1) + (hi is None) - (lo is None)
            qw = p0 + d.scale(tw)
            val = max(c + a.dot(qw) for a, c in terms)
            active = sorted(a for a, c in terms if c + a.dot(qw) == val)
            if (ai, aj) != (active[0], active[-1]):
                continue  # not the two ends of the dual edge: emitted by those
            diff = (active[-1] - active[0]).scale(den)
            mult = math.gcd(abs(int(diff.x)), abs(int(diff.y)))
            # a segment between two finite ends, and beyond each open end a
            # ray from the other end, which is p0 on a full line
            a, b = (p0 if t is None else p0 + d.scale(t) for t in (lo, hi))
            vertices.update([v for t, v in ((lo, a), (hi, b)) if t is not None] or [p0])
            if lo is not None and hi is not None:
                edges.append(CurveEdge(a, b, multiplicity=mult))
            if hi is None:
                edges.append(CurveEdge(a, ray=d, multiplicity=mult))
            if lo is None:
                edges.append(CurveEdge(b, ray=-d, multiplicity=mult))
    return TropicalCurve(tuple(sorted(vertices)), tuple(edges))


def make_fan(rays) -> TropicalCurve:
    """A one-vertex curve at the origin from (direction, multiplicity) pairs;
    each direction must be primitive (``CurveEdge`` refuses any other)."""
    o = Vec2(0, 0)
    return TropicalCurve((o,), tuple(CurveEdge(o, ray=d, multiplicity=m) for d, m in rays))


def fan_equal(v1: TropicalCurve, v2: TropicalCurve) -> bool:
    """Compare two single-vertex curves by their (ray, multiplicity) data.

    Rays with equal direction are merged by summing multiplicities, and
    the vertex position is quotiented out.
    """

    def normal_form(curve: TropicalCurve):
        if len(curve.vertices) != 1 or any(not e.is_ray for e in curve.edges):
            raise ValueError("non-fan input")
        acc: dict = {}
        for e in curve.edges:
            acc[e.ray] = acc.get(e.ray, 0) + e.multiplicity
        return tuple(sorted(acc.items()))

    return normal_form(v1) == normal_form(v2)


def genus_degree(d: int) -> int:
    if d < 1:
        raise ValueError("degree must be positive")
    return (d - 1) * (d - 2) // 2


def genus_of(delta: RatPolygon) -> int:
    """The genus of the curve dual to a convex lattice polygon, in either
    orientation: its number of interior lattice points, counted by floor
    sums along its counterclockwise edges."""
    if not all(v.is_integral() for v in delta.vertices):
        raise ValueError("lattice polygon required")
    if delta.area2() == 0:  # a point, a segment, or collinear vertices
        return 0
    ring = [(int(v.x), int(v.y)) for v in delta.counterclockwise().vertices]
    return interior_lattice_count([(*a, *b) for a, b in zip(ring, ring[1:] + ring[:1])], 1)
