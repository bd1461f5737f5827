"""Exact Laurent-polynomial algebra and the Kasteleyn matrix of a dual dimer.

Matrix entries are holonomy monomials z^delta where delta is the lift
displacement white-centroid -> shared vertex -> black-centroid.  The
determinant (the partition function) is computed by cofactor expansion
over the Laurent ring; perfect-matching enumeration provides an
independent oracle for its terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .lattice import ORIGIN, Vec2
from .dimer import DimerGraph, DualDimer, build_graph, faces, validate


@dataclass(frozen=True)
class LaurentPolynomial:
    terms: tuple  # sorted tuple of (exponent: Vec2, coefficient: Rat), no zeros

    def __post_init__(self):
        items = self.terms
        if isinstance(items, dict):
            items = items.items()
        items = tuple(sorted((a, Fraction(c)) for a, c in items if c != 0))
        object.__setattr__(self, "terms", items)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        acc = dict(self.terms)
        for a, c in other.terms:
            acc[a] = acc.get(a, Fraction(0)) + c
        return LaurentPolynomial(tuple(acc.items()))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((a, -c) for a, c in self.terms))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        acc: dict = {}
        for a, c in self.terms:
            for b, d in other.terms:
                key = a + b
                acc[key] = acc.get(key, Fraction(0)) + c * d
        return LaurentPolynomial(tuple(acc.items()))

    def normalized(self) -> "LaurentPolynomial":
        """Shift exponents so the componentwise minimum is (0,0).

        Gauge changes multiply the determinant by a single monomial; this
        normal form quotients that ambiguity out.
        """
        if self.is_zero:
            return self
        mx = min(a.x for a, _ in self.terms)
        my = min(a.y for a, _ in self.terms)
        shift = Vec2(-mx, -my)
        return LaurentPolynomial(tuple((a + shift, c) for a, c in self.terms))


ZERO = LaurentPolynomial(())
ONE = LaurentPolynomial(((Vec2(0, 0), Fraction(1)),))


def monomial(exponent: Vec2, coefficient=1) -> LaurentPolynomial:
    return LaurentPolynomial(((exponent, Fraction(coefficient)),))


def _format_power(name: str, e: Fraction) -> str:
    if e == 1:
        return name
    return f"{name}^{e}"


def format_laurent(p: LaurentPolynomial) -> str:
    """Canonical rendering: constant term first, then exponents in
    descending lexicographic order; `3 - z1 - z2 - z1^-1*z2^-1` style."""
    if p.is_zero:
        return "0"

    def order(item):
        a, _ = item
        return (not (a.x == 0 and a.y == 0), (-a.x, -a.y))

    parts = []
    for a, c in sorted(p.terms, key=order):
        factors = []
        if a.x != 0:
            factors.append(_format_power("z1", a.x))
        if a.y != 0:
            factors.append(_format_power("z2", a.y))
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
# gauges


@dataclass(frozen=True)
class Gauge:
    """Per-row and per-column monomial rescaling (coefficient 1)."""

    row_exponents: tuple  # (white index, Vec2)
    col_exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "_rows", dict(self.row_exponents))
        object.__setattr__(self, "_cols", dict(self.col_exponents))

    def row(self, w: int) -> Vec2:
        return self._rows.get(w, ORIGIN)

    def col(self, b: int) -> Vec2:
        return self._cols.get(b, ORIGIN)


TRIVIAL_GAUGE = Gauge((), ())


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


def make_gauge(graph: DimerGraph, name: str) -> Gauge:
    """`paper` and `trivial` are the identity gauge; `random:<seed>` draws
    integer exponents deterministically from the seed."""
    seed = gauge_seed(name)
    if seed is None:
        return TRIVIAL_GAUGE
    rng = random.Random(seed)
    rows = tuple(
        (w, Vec2(rng.randint(-3, 3), rng.randint(-3, 3))) for w in graph.whites
    )
    cols = tuple(
        (b, Vec2(rng.randint(-3, 3), rng.randint(-3, 3))) for b in graph.blacks
    )
    return Gauge(rows, cols)


def edge_monomial(
    graph: DimerGraph, edge, gauge: Gauge = TRIVIAL_GAUGE, sign: int = 1
) -> LaurentPolynomial:
    """sign * z^(displacement + row exponent + column exponent)."""
    return monomial(edge.displacement + gauge.row(edge.white) + gauge.col(edge.black), sign)


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

    rows = []
    for face in faces(dimer):
        vec = [0] * (n + 1)
        for idx in face.edge_indices:
            vec[idx] ^= 1
        k = len(face.edge_indices) // 2
        vec[n] = (k + 1) % 2
        rows.append(vec)

    # Gaussian elimination over GF(2); free variables are set to zero, so
    # the assignment is deterministic and is all-positive whenever that
    # satisfies every face.
    pivots = []
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    if any(row[n] for row in rows[r:]):
        raise ValueError("no consistent sign assignment exists")
    x = [0] * n
    for i, c in pivots:
        x[c] = rows[i][n]
    return [(-1) ** b for b in x]


@dataclass(frozen=True)
class KasteleynMatrix:
    rows: tuple  # white polytope indices
    cols: tuple  # black polytope indices
    entries: tuple  # row-major tuple of LaurentPolynomial

    @property
    def is_square(self) -> bool:
        return len(self.rows) == len(self.cols)

    def entry(self, i: int, j: int) -> LaurentPolynomial:
        return self.entries[i * len(self.cols) + j]


def kasteleyn_matrix(dimer: DualDimer, gauge: Gauge = TRIVIAL_GAUGE) -> KasteleynMatrix:
    graph = build_graph(dimer)
    signs = kasteleyn_signs(dimer)
    rows = graph.whites
    cols = graph.blacks
    grid = {(w, b): ZERO for w in rows for b in cols}
    for idx, e in enumerate(graph.edges):
        term = edge_monomial(graph, e, gauge, signs[idx])
        grid[(e.white, e.black)] = grid[(e.white, e.black)] + term
    entries = tuple(grid[(w, b)] for w in rows for b in cols)
    return KasteleynMatrix(tuple(rows), tuple(cols), entries)


def determinant(m: KasteleynMatrix) -> LaurentPolynomial:
    """Exact determinant by cofactor expansion; the zero polynomial for a
    non-square matrix (callers surface the "non-square" note)."""
    if not m.is_square:
        return ZERO
    n = len(m.rows)

    def expand(row: int, cols: tuple) -> LaurentPolynomial:
        if not cols:
            return ONE
        acc = ZERO
        for k, j in enumerate(cols):
            entry = m.entry(row, j)
            if entry.is_zero:
                continue
            sub = expand(row + 1, cols[:k] + cols[k + 1 :])
            term = entry * sub
            acc = acc + (term if k % 2 == 0 else -term)
        return acc

    return expand(0, tuple(range(n)))


# ---------------------------------------------------------------------------
# matchings


def enumerate_matchings(graph: DimerGraph):
    """All perfect matchings by backtracking, in sorted canonical order.

    Each matching is a tuple of indices into ``graph.edges``.
    """
    if len(graph.whites) != len(graph.blacks):
        return []
    by_white: dict = {w: [] for w in graph.whites}
    for idx, e in enumerate(graph.edges):
        by_white[e.white].append(idx)
    whites = sorted(graph.whites)
    out = []

    def place(k: int, used_blacks: frozenset, chosen: tuple):
        if k == len(whites):
            out.append(tuple(sorted(chosen)))
            return
        for idx in by_white[whites[k]]:
            b = graph.edges[idx].black
            if b in used_blacks:
                continue
            place(k + 1, used_blacks | {b}, chosen + (idx,))

    place(0, frozenset(), ())
    return sorted(out)


def boltzmann_monomial(graph: DimerGraph, matching, gauge: Gauge = TRIVIAL_GAUGE) -> LaurentPolynomial:
    acc = ONE
    for idx in matching:
        acc = acc * edge_monomial(graph, graph.edges[idx], gauge)
    return acc


def det_matches_matchings(dimer: DualDimer) -> bool:
    """Oracle check: the determinant counts perfect matchings.

    True iff the determinant's exponent set equals the set of Boltzmann
    monomials and each |coefficient| equals the number of matchings with
    that monomial (signs are not fixed by any convention here), hence
    also sum |coefficients| = matching count.
    """
    graph = build_graph(dimer)
    if len(graph.whites) != len(graph.blacks):
        return False
    det = determinant(kasteleyn_matrix(dimer))
    counts: dict = {}
    for matching in enumerate_matchings(graph):
        mono = boltzmann_monomial(graph, matching)
        (exp, coeff), = mono.terms
        assert coeff == 1
        counts[exp] = counts.get(exp, 0) + 1
    det_counts = {a: abs(c) for a, c in det.terms}
    return det_counts == counts


def novikov_necessary_condition(dimer: DualDimer, weights) -> bool:
    """Whether the minimal total Novikov weight over perfect matchings is
    attained at least twice (necessary for a nonzero kernel element)."""
    graph = build_graph(dimer)
    totals = []
    for matching in enumerate_matchings(graph):
        total = Fraction(0)
        for idx in matching:
            w = Fraction(weights[graph.edges[idx].edge_id])
            if w < 0:
                raise ValueError("weights must be nonnegative")
            total += w
        totals.append(total)
    if not totals:
        return False
    lo = min(totals)
    return totals.count(lo) >= 2
