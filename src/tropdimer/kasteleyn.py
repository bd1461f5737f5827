"""Exact Laurent-polynomial algebra and the Kasteleyn matrix of a dual dimer.

Matrix entries are holonomy monomials z^delta where delta is the lift
displacement white-centroid -> shared vertex -> black-centroid.  Every
exponent is a pair of integer numerators over the graph's denominator D
(``DimerGraph.denominator``); only ``format_laurent`` divides by D.  The
determinant (the partition function) is computed in time polynomial in the
matrix size n and in the size of its Newton box: a tree gauge with exact
integer potentials makes the exponents integers and erases any input gauge,
an exact elimination of the unit entries +-z^e leaves a small Schur
complement, the tropical determinant bounds its exponents, and exact
evaluation modulo primes, interpolation and the Chinese remainder theorem
give the coefficients.  Only ``enumerate_matchings`` walks the perfect
matchings, the whites in order with a bitmask of the blacks already used,
so its cost grows with their number; the `matchings` command counts them
from the determinant on an embedded dimer.  ``kasteleyn_signs`` is a stage
of the dimer, solved at most once per instance like those of ``dimer``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from operator import mul
from types import MappingProxyType

from .dimer import DimerGraph, DualDimer, _stage, build_graph, faces, validate
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

    1. A BFS-tree gauge with exact potentials makes every forest entry z^0
       on its first term, so every exponent an integer pair (a cycle's sum
       is a homology class), and multiplies the determinant by a monomial
       divided out at the end; any input gauge cancels before the box.
    2. Hadamard's inequality with Cauchy's coefficient estimate bounds
       every |coefficient| by sqrt(prod_i sum_j (sum |c_ij|)^2) on these
       n x n rows.
    3. Every unit entry, a single term +-z^e, is eliminated exactly over
       Z[z^+-1] (``_unit_reduce``): the determinant is a signed monomial
       times that of the k x k Schur complement S left, k = 4 for the n = 18
       of honeycomb 2x3.  The rest runs on S.
    4. Four assignment problems (the tropical determinant: least and
       greatest total x and y exponent over the transversals), each a
       warm-started Hungarian method on one column of the entries' (least
       x, -greatest x, least y, -greatest y), read once, give a box
       [x0, x1] x [y0, y1] holding every transversal's monomial.
    5. Primes below 2^30, one CPython digit and each tested once per
       process, are taken from 2^30 - 35 down until their product exceeds
       twice the bound of step 2.  For each, det S mod p at the nodes of a
       (W1+1) x (W2+1) grid, W = box width, drawn per prime, by one sparse
       elimination; a prime whose nodes no single pivot order serves is
       skipped.
    6. Interpolation along z1 and then z2, one inverse Vandermonde table
       per axis, and the Chinese remainder theorem to balanced integers,
       each shifted by the monomial of step 3.

    The bound comes from the n x n rows because S's own Hadamard bound is
    looser (honeycomb 6x6 would take 5 primes on it, not 3); the box comes
    from S because its assignment problems are k x k, although S's box can
    be wider than the box of the n x n rows.  Entry coefficients must be
    integers.  The cost is the unit elimination, a few operations per
    fill-in term, plus four sparse assignment problems on S, one Dijkstra
    search, O(e log k) for e nonzero entries, per row that the greedy start
    leaves unmatched, plus per prime one elimination, O(k^3) steps on
    vectors of (W1+1)(W2+1) values at worst, and the interpolation,
    O(W1 W2 (W1 + W2)).  A non-square matrix, or one with no transversal,
    gives the zero polynomial (no perfect matching), which the `kasteleyn`
    command prints as `0`.
    """
    n, den = len(m.rows), m.denominator
    zero = LaurentPolynomial((), den)
    if n != len(m.cols):
        return zero
    rows, (sx, sy) = _tree_gauge(m)
    bound2 = 1
    for row in rows:
        bound2 *= sum(sum(abs(c) for _, _, c in ts) ** 2 for ts in row.values())
    unit, (ex, ey), rows = _unit_reduce(rows)
    sx, sy = sx - den * ex, sy - den * ey
    if not unit:  # a row cancelled to nothing
        return zero
    if not rows:
        return LaurentPolynomial((((-sx, -sy), unit),), den)
    reach = [{} for _ in rows]  # entry -> (least x, -greatest x, least y, -greatest y)
    for i, row in enumerate(rows):
        for j, ts in row.items():
            xs, ys, _ = zip(*ts)
            reach[i][j] = min(xs), -max(xs), min(ys), -max(ys)
    box = [_assignment([{j: r[k] for j, r in row.items()} for row in reach]) for k in range(4)]
    if None in box:  # no transversal
        return zero
    x0, x1, y0, y1 = box[0], -box[1], box[2], -box[3]
    # z^(-x0, -y0) times row 0: a polynomial of degree (W1, W2), W = box width
    rows[0] = {j: [(x - x0, y - y0, c) for x, y, c in ts] for j, ts in rows[0].items()}
    coeffs, modulus = [[0] * (y1 - y0 + 1) for _ in range(x1 - x0 + 1)], 1
    for p in _primes():
        a, b = _nodes(p, x1 - x0 + 1, y1 - y0 + 1)
        values = _det_mod(rows, a, b, p)
        if values is None:  # no pivot order serves every node: the next prime draws new ones
            continue
        in_z1 = _interpolate([values[k:k + len(a)] for k in range(0, len(values), len(a))], a, p)
        residues = _interpolate(zip(*in_z1), b, p)  # [kx][ky]
        step = pow(modulus, -1, p)
        coeffs = [[c + modulus * ((r - c) * step % p) for c, r in zip(cs, rs)]
                  for cs, rs in zip(coeffs, residues)]
        modulus *= p
        if modulus * modulus > 4 * bound2:
            break
    terms = [
        ((den * (x0 + kx) - sx, den * (y0 + ky) - sy),
         unit * (c - modulus if 2 * c > modulus else c))
        for kx, cs in enumerate(coeffs)
        for ky, c in enumerate(cs)
    ]
    return LaurentPolynomial(tuple(terms), den)


def _unit_reduce(rows):
    """(unit, (ex, ey), rest): the determinant of the gauged rows is
    unit * z^(ex, ey) times that of the k x k rows ``rest``, re-indexed in
    order, with unit 0 when a row cancels to nothing (the determinant is 0).

    A sparse elimination, exact over Z[z^+-1], whose pivots are units: single
    terms +-z^e, whose inverse is a unit.  Each step takes ``_det_mod``'s
    pivot restricted to units: the remaining row with the fewest entries
    that holds a unit and, among its units, the column held by the fewest
    remaining rows; every other row r holding that column j loses
    (t_rj / pivot) times the pivot row, a polynomial that cancels dropped.
    It stops when no remaining row holds a unit.  The sign is that of the
    permutation taking each pivot row to its column and the remaining rows,
    in order, to the remaining columns in order.
    """
    n = len(rows)
    left = {i: {j: {(x, y): c for x, y, c in ts} for j, ts in row.items()}
            for i, row in enumerate(rows)}
    holders = [set() for _ in range(n)]  # column -> remaining rows with an entry there
    for i, row in left.items():
        for j in row:
            holders[j].add(i)

    def units(row):
        return [j for j, t in row.items() if len(t) == 1 and abs(next(iter(t.values()))) == 1]

    ready = {i for i, row in left.items() if units(row)}
    perm, unit, ex, ey = [None] * n, 1, 0, 0
    while ready:
        i = min(ready, key=lambda r: len(left[r]))
        ready.remove(i)
        row = left.pop(i)
        j = min(units(row), key=lambda c: len(holders[c]))
        for c in row:
            holders[c].discard(i)
        ((px, py), pc), = row.pop(j).items()
        perm[i], unit, ex, ey = j, unit * pc, ex + px, ey + py
        for r in holders[j]:
            target = left[r]
            # minus t_rj / pivot, the pivot's inverse being pc z^(-px, -py)
            f = [(x - px, y - py, -c * pc) for (x, y), c in target.pop(j).items()]
            for col, value in row.items():
                acc = target.setdefault(col, {})
                for (x, y), c in value.items():
                    for fx, fy, fc in f:
                        key = x + fx, y + fy
                        if s := acc.get(key, 0) + c * fc:
                            acc[key] = s
                        else:
                            del acc[key]
                if acc:
                    holders[col].add(r)
                else:
                    del target[col]
                    holders[col].discard(r)
            if not target:
                return 0, (0, 0), []
            if units(target):
                ready.add(r)
            else:
                ready.discard(r)
    pivoted = set(perm)
    cols = [j for j in range(n) if j not in pivoted]
    for i, j in zip(left, cols):
        perm[i] = j
    unit *= (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])  # inversions
    index = {j: k for k, j in enumerate(cols)}
    rest = [{index[j]: [(x, y, c) for (x, y), c in t.items()] for j, t in row.items()}
            for row in left.values()]
    return unit, (ex, ey), rest


def _tree_gauge(m: KasteleynMatrix):
    """(rows, shift): row i of the gauged matrix as {column: ((x, y, c), ...)}
    with integer exponents, and the numerator pair over D that the gauge adds
    to every monomial of the determinant.

    Row and column potentials come from a BFS spanning forest of the
    support, exact so that the forest's entries, on their first term, get
    exponent (0, 0); then every term's is divisible by D.  Exact potentials
    absorb any row and column gauge, so the rows do not depend on one.
    """
    n, den = len(m.rows), m.denominator
    support = [{j: e.terms for j in range(n) if (e := m.entries[i * n + j]).terms}
               for i in range(n)]
    holders = [[] for _ in range(n)]
    for i, row in enumerate(support):
        for j in row:
            holders[j].append(i)
    row_pot, col_pot = [None] * n, [None] * n
    for root in range(n):
        if row_pot[root] is not None:
            continue
        row_pot[root] = (0, 0)
        queue = [root]
        for i in queue:
            rx, ry = row_pot[i]
            for j, terms in support[i].items():
                if col_pot[j] is not None:
                    continue
                (ex, ey), _ = terms[0]
                cx, cy = col_pot[j] = (-ex - rx, -ey - ry)
                for k in holders[j]:
                    if row_pot[k] is None:
                        (ex, ey), _ = support[k][j][0]
                        row_pot[k] = (-ex - cx, -ey - cy)
                        queue.append(k)
    col_pot = [pot or (0, 0) for pot in col_pot]  # a column with no entries
    rows = []
    for i, row in enumerate(support):
        gauged = {}
        for j, terms in row.items():
            shift_x, shift_y = row_pot[i][0] + col_pot[j][0], row_pot[i][1] + col_pot[j][1]
            gauged[j] = []
            for (ex, ey), c in terms:
                (x, rx), (y, ry) = divmod(ex + shift_x, den), divmod(ey + shift_y, den)
                if rx or ry:
                    raise ValueError("entry exponents are not integral up to a gauge")
                gauged[j].append((x, y, c))
        rows.append(gauged)
    shift = tuple(sum(pot[k] for pot in row_pot + col_pot) for k in (0, 1))
    return rows, shift


def _assignment(costs):
    """The least total cost of a transversal, where ``costs[i]`` maps each
    column row i may take to an integer cost; None when there is none.

    The Hungarian method with potentials u, v, warm-started: u[i] is row i's
    least cost, v[j] the least c - u[i] over the rows holding column j (0
    for an empty column), and each row in turn takes the first free column
    whose entry is tight (c = u[i] + v[j]).  Then one Dijkstra search per
    row left unmatched, on the reduced costs c - u[i] - v[j] >= 0 of the
    sparse support, and an augmentation along the shortest alternating path.
    """
    n = len(costs)
    u = [min(row.values(), default=0) for row in costs]
    reduced = [[] for _ in range(n)]  # column -> c - u[i] over the rows holding it
    for i, row in enumerate(costs):
        for j, c in row.items():
            reduced[j].append(c - u[i])
    v = [min(col, default=0) for col in reduced]
    match, owner = [None] * n, [None] * n  # row -> column, column -> row
    for i, row in enumerate(costs):
        j = next((j for j, c in row.items() if owner[j] is None and c == u[i] + v[j]), None)
        if j is not None:
            match[i], owner[j] = j, i
    for s in [i for i in range(n) if match[i] is None]:
        row_dist, col_dist, back = {s: 0}, {}, {}
        heap, done = [], set()
        i, d = s, 0
        while True:
            for j, c in costs[i].items():
                nd = d + c - u[i] - v[j]
                if j not in done and nd < col_dist.get(j, nd + 1):
                    col_dist[j], back[j] = nd, i
                    heapq.heappush(heap, (nd, j))
            while heap and heap[0][1] in done:
                heapq.heappop(heap)
            if not heap:
                return None
            d, j = heapq.heappop(heap)
            done.add(j)
            if owner[j] is None:
                break
            i = owner[j]
            row_dist[i] = d
        for r, dr in row_dist.items():
            u[r] += d - dr
        for c in done:
            v[c] -= d - col_dist[c]
        while j is not None:
            i = back[j]
            owner[j] = i
            match[i], j = j, match[i]
    return sum(costs[i][j] for i, j in enumerate(match))


_PRIMES = []  # the primes that _primes has found so far, in its order


def _primes():
    """The primes below 2^30, from 2^30 - 35 down: Miller-Rabin on the first
    twelve prime bases, which is deterministic below 2^64, each number tested
    once per process (``_PRIMES`` keeps the primes found).  CPython stores
    an int in 30-bit digits, so every residue mod such a prime is one digit,
    every product of two at most two, and every ``% p`` divides by one."""
    for k in itertools.count():
        p = _PRIMES[-1] if _PRIMES else (1 << 30) + 1
        while k == len(_PRIMES):  # test on below the last prime found
            p -= 2
            d, s = p - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                x = pow(a, d, p)
                if x not in (1, p - 1) and all((x := x * x % p) != p - 1 for _ in range(s - 1)):
                    break
            else:
                _PRIMES.append(p)
        yield _PRIMES[k]


def _nodes(p: int, *counts) -> list:
    """Per axis, the nodes (z + k) * t mod p for k < count, z < p / 2 and t
    drawn from random.Random(p): an arithmetic progression of nonzero nodes."""
    rng = random.Random(p)
    draws = [(rng.randrange(1, p // 2), rng.randrange(1, p)) for _ in counts]
    return [[(z + k) * t % p for k in range(count)] for (z, t), count in zip(draws, counts)]


def _inverses(values: list, p: int) -> list:
    """The inverses mod p of nonzero values with one pow: Montgomery's batch inversion."""
    acc = 1
    before = [1] + [acc := acc * v % p for v in values[:-1]]
    acc = pow(acc * values[-1] % p, -1, p)
    upto = [acc] + [acc := acc * v % p for v in values[:0:-1]]
    return [u * w % p for u, w in zip(before, reversed(upto))]


def _det_mod(rows, a: list, b: list, p: int):
    """det mod p of the rows, the Schur complement that ``_unit_reduce``
    leaves, at each node (z1, z2) = (a[k], b[l]), indexed l * len(a) + k, or
    None when no pivot order serves every node: one elimination on sparse
    rows of per-node values, an entry zero at every node dropped, an entry
    1 * z^e sharing the list of z^e (no list is changed in place).  Each step
    takes the remaining row with the fewest entries (none: det is zero) and,
    among its entries nonzero at every node, the column held by the fewest
    remaining rows, inverted if another row holds it.  The rows hold no
    unit, so every pivot is a polynomial of several terms or c * z^e with
    |c| > 1, which may vanish at some node."""
    pairs = {(x, y) for row in rows for ts in row.values() for x, y, _ in ts}
    za, zb = ({e: [pow(z, abs(e), p) for z in (nodes if e >= 0 else inverse)]
               for e in {pair[k] for pair in pairs}}
              for k, nodes, inverse in ((0, a, _inverses(a, p)), (1, b, _inverses(b, p))))
    powers = {(x, y): [v * u % p for v in zb[y] for u in za[x]] for x, y in pairs}
    left, holders = {}, [set() for _ in rows]  # column -> remaining rows with an entry there
    for i, row in enumerate(rows):
        left[i] = {}
        for j, ((x, y, c), *more) in row.items():
            value = powers[x, y] if c == 1 else [c * z % p for z in powers[x, y]]
            for x, y, c in more:
                value = [(s + c * z) % p for s, z in zip(value, powers[x, y])]
            if any(value):
                left[i][j] = value
                holders[j].add(i)
    perm, det, zeros = [0] * len(rows), [1] * len(a) * len(b), [0] * len(a) * len(b)
    while left:
        i = min(left, key=lambda r: len(left[r]))
        row = left.pop(i)
        if not row:
            return zeros
        j = min((c for c, v in row.items() if all(v)), key=lambda c: len(holders[c]), default=None)
        if j is None:
            return None
        for c in row:
            holders[c].discard(i)
        perm[i], pivot = j, row.pop(j)
        det = [d * v % p for d, v in zip(det, pivot)]
        inverse = _inverses(pivot, p) if holders[j] else None
        for r in holders[j]:
            target = left[r]
            f = [-v * w % p for v, w in zip(target.pop(j), inverse)]  # minus the multiplier
            for c, value in row.items():
                w = ([(o + g * v) % p for o, g, v in zip(target[c], f, value)] if c in target
                     else [g * v % p for g, v in zip(f, value)])
                if any(w):
                    target[c] = w
                    holders[c].add(r)
                else:
                    target.pop(c, None)
                    holders[c].discard(r)
    sign = (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])  # inversions
    return [sign * d % p for d in det]


def _interpolate(rows, nodes: list, p: int) -> list:
    """For each row of values at the nodes, the coefficients, lowest degree
    first, of the polynomial of degree below len(nodes) through them, mod p,
    the nodes x_i = (z + i) * t: one inverse Vandermonde table per call, one
    reduction per coefficient.  Column i is prod_{j != i} (x - x_j), synthetic
    divisions of the master prod_j (x - x_j), and the value at x_i is first
    divided by t^(k-1) i! (k-1-i)! (-1)^(k-1-i)."""
    k = len(nodes)
    master = [1]  # highest degree first
    for r in nodes:
        master = [(u - r * v) % p for u, v in zip(master + [0], [0] + master)]
    factorial = list(itertools.accumulate(range(1, k), lambda f, i: f * i % p, initial=1))
    scale = pow(nodes[1] - nodes[0], k - 1, p) if k > 1 else 1
    weights = _inverses([(-1) ** (k - 1 - i) * scale * factorial[i] * factorial[k - 1 - i] % p
                         for i in range(k)], p)
    table = [quotient := [1] * k]  # degree k - 1 of master / (x - x_i) for each i, then down
    for u in master[1:k]:
        table.append(quotient := [(u + r * q) % p for r, q in zip(nodes, quotient)])
    scaled = ([w * v % p for w, v in zip(weights, values)] for values in rows)
    return [[sum(map(mul, row, values)) % p for row in reversed(table)] for values in scaled]


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
