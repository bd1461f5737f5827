"""Exact Laurent-polynomial algebra and the Kasteleyn matrix of a dual dimer.

Matrix entries are holonomy monomials z^delta where delta is the lift
displacement white-centroid -> shared vertex -> black-centroid.  Every
exponent is a pair of integer numerators over the graph's denominator D
(``DimerGraph.denominator``); only ``format_laurent`` divides by D.  The
determinant (the partition function) is computed by elimination exact over
Z[z^+-1], at a cost set by the matrix size n and the numbers of terms of
the minors it forms, whatever the size of the exponents: an elimination of
the unit entries +-z^e leaves a small Schur complement, and a fraction-free
(Bareiss) elimination gives its determinant.  Both use up one sparse state
in place, with one sign rule for their pivots, on the entries' own
numerators, each term keyed by one int x*s + y (Kronecker substitution),
with s wide enough for every exponent they form.  Only
``enumerate_matchings`` walks the perfect matchings, the whites in order
with a bitmask of the blacks already used, so its cost grows with their
number; the `matchings` command counts them from the determinant on an
embedded dimer.  ``kasteleyn_signs`` is a stage of the dimer, solved at
most once per instance like those of ``dimer``.
"""

from __future__ import annotations

import math
import random
from types import MappingProxyType

from .dimer import DimerGraph, DualDimer, _stage, build_graph, faces, join, validate
from .lattice import Record


class LaurentPolynomial(Record):
    """A Laurent polynomial in z1, z2 whose exponents are integer pairs
    (x, y) standing for (x/D, y/D), D = ``denominator``.  The constructor
    sums the coefficients of equal exponents and drops the zeros; ``terms``
    is kept as a sorted tuple of (exponent, coefficient)."""

    __slots__ = ("terms", "denominator")

    def __init__(self, terms: tuple, denominator: int = 1):
        acc: dict = {}
        for a, c in terms:
            acc[a] = acc.get(a, 0) + c
        self.terms = tuple(sorted((a, c) for a, c in acc.items() if c != 0))
        self.denominator = denominator

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _over(self, other: "LaurentPolynomial") -> int:
        """The common denominator; exponents over different ones do not mix."""
        if self.denominator != other.denominator:
            raise ValueError("exponents over different denominators do not mix")
        return self.denominator

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return LaurentPolynomial(self.terms + other.terms, self._over(other))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((a, -c) for a, c in self.terms), self.denominator)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        products = (
            ((ax + bx, ay + by), c * d) for (ax, ay), c in self.terms for (bx, by), d in other.terms
        )
        return LaurentPolynomial(products, self._over(other))

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
    descending lexicographic order; `3 - z1 - z2 - z1^-1*z2^-1` style, each
    exponent x/D reduced by ``math.gcd`` to `z1`, `z1^k` or `z1^k/d`."""
    if p.is_zero:
        return "0"

    def order(item):
        (x, y), _ = item
        return ((x, y) != (0, 0), (-x, -y))

    parts = []
    for (x, y), c in sorted(p.terms, key=order):
        factors = []
        for name, e in (("z1", x), ("z2", y)):
            if e:
                g = math.gcd(e, p.denominator)
                k = f"{e // g}" if g == p.denominator else f"{e // g}/{p.denominator // g}"
                factors.append(name if e == p.denominator else f"{name}^{k}")
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


def _exponent(graph: DimerGraph, edge, gauge) -> tuple:
    """The numerator pair over D of displacement + row exponent + column exponent."""
    (x, y), d = edge.displacement, graph.denominator
    (wx, wy), (bx, by) = gauge.get(edge.white, (0, 0)), gauge.get(edge.black, (0, 0))
    return x + d * (wx + bx), y + d * (wy + by)


# ---------------------------------------------------------------------------
# the matrix


@_stage
def kasteleyn_signs(dimer: DualDimer):
    """A sign per graph edge making every face of length 2k carry sign
    product (-1)^(k+1), as a list kept on the dimer (see `dimer._stage`).

    With this condition the determinant's coefficient signs depend only on
    the exponent, so each |coefficient| counts the perfect matchings with
    that Boltzmann monomial.  All-positive when faces are undefined
    (immersed dimer) -- the hexagonal-lattice case needs no flips either.

    Each edge lies on two face sides, so the columns of the face system
    are the edges of the dual graph, and an edge that one face meets twice
    is a loop, a zero column.  The dual spanning forest, taken by one
    union-find over the edges in index order, is the greedy column basis
    in that order.  Every edge off it keeps sign +1; peeling leaf faces
    fixes the forest's flips, each leaf passing its parity (k + 1) % 2 to
    the face across.  That is the solution a column-by-column elimination
    gives, with its free columns 0.  A parity left over means the face
    system has no solution.
    """
    graph = build_graph(dimer)
    n = len(graph.edges)
    if validate(dimer).self_intersecting:
        return [1] * n

    all_faces = faces(dimer)
    sides = [[] for _ in range(n)]  # edge -> the two faces it lies on
    for f, face in enumerate(all_faces):
        for idx in face.edge_indices:
            sides[idx].append(f)
    parity = [(len(face.edge_indices) // 2 + 1) % 2 for face in all_faces]
    parent = list(range(len(all_faces)))
    left = [set() for _ in all_faces]  # face -> its forest edges not yet fixed
    for idx, (f, g) in enumerate(sides):
        if join(parent, f, g):
            left[f].add(idx)
            left[g].add(idx)
    flips = [0] * n
    leaves = [f for f, edges in enumerate(left) if len(edges) == 1]
    for f in leaves:  # grows as faces become leaves
        if len(left[f]) != 1:
            continue
        idx = left[f].pop()
        g = sum(sides[idx]) - f
        left[g].remove(idx)
        flips[idx], parity[g], parity[f] = parity[f], parity[g] ^ parity[f], 0
        if len(left[g]) == 1:
            leaves.append(g)
    if any(parity):
        raise ValueError("no consistent sign assignment exists")
    return [(-1) ** b for b in flips]


class KasteleynMatrix(Record):
    """Rows are white and columns black polytope indices; ``entries`` is
    the row-major tuple of LaurentPolynomial, all over ``denominator``."""

    __slots__ = ("rows", "cols", "entries", "denominator")

    def __init__(self, rows: tuple, cols: tuple, entries: tuple, denominator: int):
        self.rows, self.cols, self.entries, self.denominator = rows, cols, entries, denominator


def kasteleyn_matrix(dimer: DualDimer, gauge=IDENTITY_GAUGE) -> KasteleynMatrix:
    """The signed, gauged matrix: one LaurentPolynomial per nonzero cell, built
    from the ((x, y), sign) terms of its edges, and one zero shared by the rest."""
    graph = build_graph(dimer)
    cells: dict = {}
    for e, sign in zip(graph.edges, kasteleyn_signs(dimer)):
        cells.setdefault((e.white, e.black), []).append((_exponent(graph, e, gauge), sign))
    grid = {key: LaurentPolynomial(terms, graph.denominator) for key, terms in cells.items()}
    zero = LaurentPolynomial((), graph.denominator)
    entries = tuple(grid.get((w, b), zero) for w in graph.whites for b in graph.blacks)
    return KasteleynMatrix(graph.whites, graph.blacks, entries, graph.denominator)


# ---------------------------------------------------------------------------
# the determinant


def determinant(m: KasteleynMatrix) -> LaurentPolynomial:
    """Exact determinant: the partition function of the dimer.

    One sparse elimination state (``_pack``): the rows left, the rows that
    hold each column and the columns left, in order.  Two passes use it up
    in place, each pivot taken by ``_take`` with the one sign rule.

    1. Every unit entry, a single term +-z^e, is eliminated exactly over
       Z[z^+-1] (``_unit_reduce``): the determinant is a signed monomial
       times that of the k x k Schur complement S left, k = 4 for the n = 18
       of honeycomb 2x3.
    2. det S by one fraction-free (Bareiss) elimination over Z[z^+-1]
       (``_bareiss``), shifted by the monomial of step 1.

    Every entry that the elimination holds is a minor of S, so no term set
    outgrows a minor's Newton polygon: the cost depends on the numbers of
    terms, not on the size of the exponents, and a change of coordinates
    that widens the Newton polygon costs nothing.  Both steps run on the
    entries' own exponent numerators over D, each term keyed by one int,
    x*s + y (Kronecker substitution), decoded only here.  With s = 12Y + 1,
    Y the sum over the matrix's rows of each row's greatest |y|, the key map
    is additive, injective and keeps lex order on every exponent formed: a
    minor of the matrix's rows has |y| <= Y, an entry or minor of a
    (partial) Schur complement, a ratio of two of those, |y| <= 2Y, and
    every product formed (the unit update, the two Bareiss products, a lazy
    row's catch-up, long division's remainder) |y| <= 6Y < s / 2.  Entry
    coefficients must be integers.  A non-square matrix, or one with no
    transversal, gives the zero polynomial (no perfect matching), which the
    `kasteleyn` command prints as `0`.
    """
    if len(m.rows) != len(m.cols):
        return LaurentPolynomial((), m.denominator)
    s, rows, holders = _pack(m)
    cols = list(range(len(rows)))
    unit, shift = _unit_reduce(rows, holders, cols)
    det = _bareiss(rows, holders, cols) if unit else {}  # unit 0: a row cancelled
    # key + shift = x*s + y with |y| <= s // 2, so key + shift + s // 2 = x*s + (y + s // 2)
    pairs = ((divmod(key + shift + s // 2, s), c) for key, c in det.items())
    return LaurentPolynomial((((x, y - s // 2), unit * c) for (x, y), c in pairs), m.denominator)


def _pack(m: KasteleynMatrix):
    """(s, rows, holders) of the square matrix: s = 12Y + 1 (see
    ``determinant``), rows[i] = {column: {x*s + y: c}}, one key per term of
    a nonzero entry of row i, and holders[j] the set of rows with an entry
    in column j."""
    n = len(m.rows)
    support = [[(j, e.terms) for j in range(n) if (e := m.entries[i * n + j]).terms]
               for i in range(n)]
    s = 12 * sum(max((abs(y) for _, ts in row for (_, y), _ in ts), default=0)
                 for row in support) + 1
    rows, holders = {}, [set() for _ in range(n)]
    for i, row in enumerate(support):
        rows[i] = {j: {x * s + y: c for (x, y), c in ts} for j, ts in row}
        for j, _ in row:
            holders[j].add(i)
    return s, rows, holders


def _take(rows, holders, cols, i, j):
    """(sign, row): pivot row i popped from ``rows`` and ``holders``, and
    column j from ``cols``; sign = (-1)^(a + b), a and b the positions of i
    and j among the rows and columns left, so that det M = sign * M_ij *
    det S, S the Schur complement on the rows and columns left, in order."""
    sign = (-1) ** (list(rows).index(i) + cols.index(j))
    row = rows.pop(i)
    for c in row:
        holders[c].discard(i)
    cols.remove(j)
    return sign, row


def _unit_reduce(rows, holders, cols):
    """(unit, e): the determinant of the state (see ``determinant``) is
    unit * z^e, e a packed key, times that of the state it leaves; unit 0
    when a row cancels to nothing (the determinant is 0).

    A sparse elimination, exact over Z[z^+-1], whose pivots are units: single
    terms +-z^e, whose inverse is a unit.  Each step takes the remaining row
    with the fewest entries that holds a unit and, among its units, the
    column held by the fewest remaining rows; every other row r holding that
    column j loses (t_rj / pivot) times the pivot row, in place, a
    polynomial that cancels dropped.  It stops when no remaining row holds a
    unit.
    """

    def is_unit(t):
        return len(t) == 1 and abs(next(iter(t.values()))) == 1

    ready = {i for i, row in rows.items() if any(map(is_unit, row.values()))}
    unit, shift = 1, 0
    while ready:
        i = min(ready, key=lambda r: len(rows[r]))
        ready.remove(i)
        j = min((c for c, t in rows[i].items() if is_unit(t)), key=lambda c: len(holders[c]))
        sign, row = _take(rows, holders, cols, i, j)
        (p, pc), = row.pop(j).items()
        unit, shift = sign * unit * pc, shift + p
        for r in holders[j]:
            target = rows[r]
            # minus t_rj / pivot, the pivot's inverse being pc z^-p
            f = [(e - p, -c * pc) for e, c in target.pop(j).items()]
            for col, value in row.items():
                acc = target.setdefault(col, {})
                for e, c in value.items():
                    for fe, fc in f:
                        key = e + fe
                        if v := acc.get(key, 0) + c * fc:
                            acc[key] = v
                        else:
                            del acc[key]
                if acc:
                    holders[col].add(r)
                else:
                    del target[col]
                    holders[col].discard(r)
            if not target:
                return 0, 0
            if any(map(is_unit, target.values())):
                ready.add(r)
            else:
                ready.discard(r)
    return unit, shift


def _bareiss(rows, holders, cols) -> dict:
    """det of the state (see ``determinant``) as {key: c}, the exponents
    packed as by ``_pack``: fraction-free (Bareiss) elimination, exact over
    Z[z^+-1], on the rows' and columns' own labels, which uses it up.

    Step t takes a pivot p_t = M_ij and replaces every other remaining
    entry by M_rc <- (p_t M_rc - M_rj M_ic) / p_(t-1), p_0 = 1; the result
    is a (t+1)-minor of the rows, so the division is exact, and the last
    pivot, times the signs of ``_take``, is the determinant.  Full
    pivoting: the remaining entry with the fewest terms, the first row and
    column among equals.  A row that does not hold the pivot column is only
    multiplied by p_t / p_(t-1), and those factors telescope: such a row is
    left alone, ``over[r]`` records the step q its entries are at, and its
    next update divides by p_q instead; the pivot row is brought up to step
    t - 1 before it is used.  No remaining entry: the determinant is 0.
    """
    over, pivots, sign = dict.fromkeys(rows, 0), [{0: 1}], 1
    for t in range(1, len(rows) + 1):
        best = min(((len(e), i, j) for i, es in rows.items() for j, e in es.items()), default=None)
        if best is None:
            return {}
        _, i, j = best
        flip, row = _take(rows, holders, cols, i, j)
        sign *= flip
        if over[i] != t - 1:  # up to step t - 1
            row = {c: _divide(_add_product({}, e, pivots[t - 1]), pivots[over[i]])
                   for c, e in row.items()}
        pivot = row.pop(j)
        for r in holders[j]:
            target, below = rows[r], pivots[over[r]]
            f = target.pop(j)
            for c in row.keys() | target.keys():
                acc = _add_product({}, pivot, target.get(c, {}))
                if acc := _divide(_add_product(acc, f, row.get(c, {}), -1), below):
                    target[c] = acc
                    holders[c].add(r)
                else:
                    target.pop(c, None)
                    holders[c].discard(r)
            over[r] = t
        pivots.append(pivot)
    return {e: sign * c for e, c in pivots[-1].items()}


def _add_product(acc: dict, f: dict, g: dict, sign: int = 1) -> dict:
    """acc, with sign * f * g added in place, for sparse Laurent polynomials
    {key: c} with packed exponents; zero coefficients may stay."""
    for e, a in f.items():
        a *= sign
        for u, b in g.items():
            key = e + u
            acc[key] = acc.get(key, 0) + a * b
    return acc


def _divide(f: dict, g: dict) -> dict:
    """f / g, zero coefficients of f dropped, for a nonzero g that divides f
    exactly over Z[z^+-1], both {key: c}: a shift and an integer division by
    a monomial, and otherwise long division on the greatest key, the
    lex-greatest exponent (lex order is kept by multiplication, so the
    greatest term of f is that of g times that of the quotient)."""
    if len(g) == 1:
        (ge, gc), = g.items()
        return {e - ge: c // gc for e, c in f.items() if c}
    le, lc = max(g.items())
    rest, out = {e: c for e, c in f.items() if c}, {}
    while rest:
        e = max(rest)
        qe, q = e - le, rest[e] // lc
        out[qe] = q
        for u, b in g.items():
            key = u + qe
            if v := rest.get(key, 0) - q * b:
                rest[key] = v
            else:
                del rest[key]
    return out


# ---------------------------------------------------------------------------
# matchings


def enumerate_matchings(graph: DimerGraph):
    """All perfect matchings, in sorted canonical order.

    Each matching is a sorted tuple of indices into ``graph.edges``.  One
    walk takes the whites in order, each to an edge whose black is not yet
    used; the used blacks are a bitmask of polytope indices.
    """
    if len(graph.whites) != len(graph.blacks):
        return []
    options = {w: [] for w in graph.whites}
    for idx, e in enumerate(graph.edges):
        options[e.white].append((e.black, idx))
    rows, chosen, found = list(options.values()), [], []

    def walk(used):
        if len(chosen) == len(rows):
            found.append(tuple(sorted(chosen)))
            return
        for black, idx in rows[len(chosen)]:
            if not used >> black & 1:
                chosen.append(idx)
                walk(used | 1 << black)
                chosen.pop()

    walk(0)
    return sorted(found)


def boltzmann_monomial(graph: DimerGraph, matching, gauge=IDENTITY_GAUGE) -> LaurentPolynomial:
    """z^(the sum of ``_exponent`` over the matching's edges)."""
    exponents = [_exponent(graph, graph.edges[idx], gauge) for idx in matching]
    total = (sum(x for x, _ in exponents), sum(y for _, y in exponents))
    return monomial(total, 1, graph.denominator)
