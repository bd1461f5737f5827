"""Exact Laurent-polynomial algebra and the Kasteleyn matrix of a dual dimer.

Matrix entries are holonomy monomials z^delta where delta is the lift
displacement white-centroid -> shared vertex -> black-centroid.  Every
exponent is a pair of integer numerators over the graph's denominator D
(``DimerGraph.denominator``); only ``format_laurent`` divides by D.  The
determinant (the partition function) and the perfect matchings are read
from one walk over the transversals of the matrix, so the cost of either
grows with the number of perfect matchings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .dimer import DimerGraph, DualDimer, build_graph, edge_weight, faces, validate


@dataclass(frozen=True)
class LaurentPolynomial:
    """A Laurent polynomial in z1, z2 whose exponents are integer pairs
    (x, y) standing for (x/D, y/D), D = ``denominator``."""

    terms: tuple  # sorted tuple of (exponent, coefficient), no zeros
    denominator: int = 1

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted((a, c) for a, c in self.terms if c != 0)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _over(self, other: "LaurentPolynomial") -> int:
        """The common denominator; exponents over different ones do not mix."""
        if self.denominator != other.denominator:
            raise ValueError("exponents over different denominators do not mix")
        return self.denominator

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        den = self._over(other)
        acc = dict(self.terms)
        for a, c in other.terms:
            acc[a] = acc.get(a, 0) + c
        return LaurentPolynomial(tuple(acc.items()), den)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((a, -c) for a, c in self.terms), self.denominator)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        den = self._over(other)
        acc: dict = {}
        for (ax, ay), c in self.terms:
            for (bx, by), d in other.terms:
                key = (ax + bx, ay + by)
                acc[key] = acc.get(key, 0) + c * d
        return LaurentPolynomial(tuple(acc.items()), den)

    def normalized(self) -> "LaurentPolynomial":
        """Shift exponents so the componentwise minimum is (0,0).

        Gauge changes multiply the determinant by a single monomial; this
        normal form quotients that ambiguity out.
        """
        if self.is_zero:
            return self
        mx = min(x for (x, _), _ in self.terms)
        my = min(y for (_, y), _ in self.terms)
        shifted = tuple(((x - mx, y - my), c) for (x, y), c in self.terms)
        return LaurentPolynomial(shifted, self.denominator)


def monomial(exponent: tuple, coefficient=1, denominator: int = 1) -> LaurentPolynomial:
    """coefficient * z^(exponent / denominator)."""
    return LaurentPolynomial(((tuple(exponent), coefficient),), denominator)


def format_laurent(p: LaurentPolynomial) -> str:
    """Canonical rendering: constant term first, then exponents in
    descending lexicographic order; `3 - z1 - z2 - z1^-1*z2^-1` style."""
    if p.is_zero:
        return "0"

    def order(item):
        (x, y), _ = item
        return ((x, y) != (0, 0), (-x, -y))

    parts = []
    for (x, y), c in sorted(p.terms, key=order):
        factors = []
        for name, e in (("z1", Fraction(x, p.denominator)), ("z2", Fraction(y, p.denominator))):
            if e != 0:
                factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# gauges: a gauge maps a polytope index to the integer exponent pair of the
# monomial its row or column is multiplied by (scaled by D where applied);
# indices it leaves out keep exponent 0.

IDENTITY_GAUGE = MappingProxyType({})


def gauge_seed(name: str):
    """The integer seed of a `random:<seed>` gauge name, None for `paper`
    and `trivial`; ValueError for any other name."""
    if name in ("paper", "trivial"):
        return None
    kind, _, seed = name.partition(":")
    if kind == "random":
        try:
            return int(seed)
        except ValueError:
            pass
    raise ValueError(f"unknown gauge {name!r}")


def make_gauge(graph: DimerGraph, name: str):
    """`paper` and `trivial` are the identity gauge; `random:<seed>` draws
    integer exponents deterministically from the seed, whites first."""
    seed = gauge_seed(name)
    if seed is None:
        return IDENTITY_GAUGE
    rng = random.Random(seed)
    return {i: (rng.randint(-3, 3), rng.randint(-3, 3)) for i in graph.whites + graph.blacks}


def edge_monomial(
    graph: DimerGraph, edge, gauge=IDENTITY_GAUGE, sign: int = 1
) -> LaurentPolynomial:
    """sign * z^(displacement + row exponent + column exponent)."""
    d = graph.denominator
    x, y = edge.displacement
    wx, wy = gauge.get(edge.white, (0, 0))
    bx, by = gauge.get(edge.black, (0, 0))
    return monomial((x + d * (wx + bx), y + d * (wy + by)), sign, d)


# ---------------------------------------------------------------------------
# the matrix


def kasteleyn_signs(dimer: DualDimer):
    """A sign per graph edge making every face of length 2k carry sign
    product (-1)^(k+1).

    With this condition the determinant's coefficient signs depend only on
    the exponent, so each |coefficient| counts the perfect matchings with
    that Boltzmann monomial.  All-positive when faces are undefined
    (immersed dimer) -- the hexagonal-lattice case needs no flips either.
    """
    graph = build_graph(dimer)
    n = len(graph.edges)
    if validate(dimer).self_intersecting:
        return [1] * n

    # one int per face: bit c is edge c, bit n the right-hand side
    rows = []
    for face in faces(dimer):
        k = len(face.edge_indices) // 2
        row = (k + 1) % 2 << n
        for idx in face.edge_indices:
            row ^= 1 << idx
        rows.append(row)

    # Gaussian elimination over GF(2); free variables are set to zero, so
    # the assignment is deterministic and is all-positive whenever that
    # satisfies every face.
    pivots = []
    r = 0
    for c in range(n):
        bit = 1 << c
        sel = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append((r, c))
        r += 1
    if any(row >> n for row in rows[r:]):
        raise ValueError("no consistent sign assignment exists")
    x = [0] * n
    for i, c in pivots:
        x[c] = rows[i] >> n
    return [(-1) ** b for b in x]


@dataclass(frozen=True)
class KasteleynMatrix:
    rows: tuple  # white polytope indices
    cols: tuple  # black polytope indices
    entries: tuple  # row-major tuple of LaurentPolynomial
    denominator: int  # D of every entry's exponents


def kasteleyn_matrix(dimer: DualDimer, gauge=IDENTITY_GAUGE) -> KasteleynMatrix:
    graph = build_graph(dimer)
    zero = LaurentPolynomial((), graph.denominator)
    grid: dict = {}
    for e, sign in zip(graph.edges, kasteleyn_signs(dimer)):
        key = (e.white, e.black)
        grid[key] = grid.get(key, zero) + edge_monomial(graph, e, gauge, sign)
    entries = tuple(grid.get((w, b), zero) for w in graph.whites for b in graph.blacks)
    return KasteleynMatrix(graph.whites, graph.blacks, entries, graph.denominator)


# ---------------------------------------------------------------------------
# the transversal walk


def _transversals(options):
    """Yield (parity, payloads) for every transversal of ``options``.

    ``options`` holds one list of (column, payload) pairs per row; a
    transversal picks one pair per row, no column twice, and ``parity`` is
    that of the permutation row -> column.  Used columns are a bitmask; the
    used columns above the chosen one are the inversions it adds.
    """
    n = len(options)
    chosen = [None] * n

    def walk(row, used, parity):
        if row == n:
            yield parity, tuple(chosen)
            return
        for col, payload in options[row]:
            if used >> col & 1:
                continue
            chosen[row] = payload
            yield from walk(row + 1, used | 1 << col, parity ^ ((used >> col).bit_count() & 1))

    return walk(0, 0, 0)


def determinant(m: KasteleynMatrix) -> LaurentPolynomial:
    """Exact determinant as the Leibniz sum: one signed product of entry
    terms per transversal of the nonzero entries, summed by exponent.

    A non-square matrix gives the zero polynomial, which is the partition
    function of a graph with no perfect matching: the `kasteleyn` command
    prints it as `0`.
    """
    n = len(m.rows)
    if n != len(m.cols):
        return LaurentPolynomial((), m.denominator)
    options = [
        [(j, term) for j in range(n) for term in m.entries[i * n + j].terms] for i in range(n)
    ]
    acc: dict = {}
    for parity, terms in _transversals(options):
        x = y = 0
        coeff = -1 if parity else 1
        for (dx, dy), c in terms:
            x += dx
            y += dy
            coeff *= c
        acc[x, y] = acc.get((x, y), 0) + coeff
    return LaurentPolynomial(tuple(acc.items()), m.denominator)


# ---------------------------------------------------------------------------
# matchings


def enumerate_matchings(graph: DimerGraph):
    """All perfect matchings, in sorted canonical order.

    Each matching is a sorted tuple of indices into ``graph.edges``.
    """
    if len(graph.whites) != len(graph.blacks):
        return []
    options = {w: [] for w in graph.whites}  # a black's index is its column
    for idx, e in enumerate(graph.edges):
        options[e.white].append((e.black, idx))
    walk = _transversals(list(options.values()))
    return sorted(tuple(sorted(matching)) for _, matching in walk)


def boltzmann_monomial(graph: DimerGraph, matching, gauge=IDENTITY_GAUGE) -> LaurentPolynomial:
    acc = monomial((0, 0), 1, graph.denominator)
    for idx in matching:
        acc = acc * edge_monomial(graph, graph.edges[idx], gauge)
    return acc


def novikov_necessary_condition(dimer: DualDimer, weights) -> bool:
    """Whether the minimal total Novikov weight over perfect matchings is
    attained at least twice (necessary for a nonzero kernel element)."""
    graph = build_graph(dimer)
    totals = []
    for matching in enumerate_matchings(graph):
        ws = [edge_weight(weights, graph.edges[idx].edge_id) for idx in matching]
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        totals.append(sum(ws))
    return len(totals) >= 2 and totals.count(min(totals)) >= 2
