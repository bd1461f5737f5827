import heapq
import itertools
import math
import random
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EMBEDDED, cover, unimodular_image
from tropdimer import catalog, kasteleyn
from tropdimer.dimer import DualDimer, Polytope, build_graph, faces, validate, zigzag_paths
from tropdimer.kasteleyn import (
    KasteleynMatrix,
    LaurentPolynomial,
    boltzmann_monomial,
    determinant,
    enumerate_matchings,
    format_laurent,
    kasteleyn_matrix,
    kasteleyn_signs,
    make_gauge,
    monomial,
)
from tropdimer.lattice import convex_hull
from tropdimer.mutation import compare_up_to_unimodular, mutation_directions

SQUARE_NAMES = [
    n
    for n in catalog.NAMES
    if len(catalog.build(n).indices("white")) == len(catalog.build(n).indices("black"))
]

# ``<name>@<kx>x<ky>``: the kx-by-ky cover of a catalog entry
COVER_NAMES = ["honeycomb@2x2", "cp2-seed@2x2", "p1p1-seed@2x2", "bl1-seed@1x2", "bl2-seed@1x2"]

# the covers of the benchmark's `partition` ladder, n = 8 .. 18
PARTITION_NAMES = [
    "p1p1-seed@2x2",
    "cp2-seed@2x2",
    "honeycomb@2x2",
    "bl2-seed@1x4",
    "bl3-seed@1x5",
    "honeycomb@2x3",
    "honeycomb@1x6",
]

# the embedded catalog entries, their 1x2, 2x1 and 2x2 covers, and the ladder
GAUGE_NAMES = list(dict.fromkeys(
    [name + size for name in EMBEDDED for size in ("", "@1x2", "@2x1", "@2x2")] + PARTITION_NAMES
))


def subject(name: str):
    """The catalog entry, or the cover, that ``name`` names."""
    base, _, size = name.partition("@")
    if not size:
        return catalog.build(base)
    kx, ky = (int(k) for k in size.split("x"))
    return cover(catalog.build(base), kx, ky)


def det_matches_matchings(dimer) -> bool:
    """True iff the determinant's exponent set equals the set of Boltzmann
    monomials and each |coefficient| equals the number of matchings with
    that monomial: Kasteleyn signs never cancel two matchings."""
    graph = build_graph(dimer)
    if len(graph.whites) != len(graph.blacks):
        return False
    det = determinant(kasteleyn_matrix(dimer))
    counts: dict = {}
    for matching in enumerate_matchings(graph):
        ((exp, coeff),) = boltzmann_monomial(graph, matching).terms
        assert coeff == 1
        counts[exp] = counts.get(exp, 0) + 1
    return {a: abs(c) for a, c in det.terms} == counts


def leibniz_determinant(m) -> LaurentPolynomial:
    """sum over permutations p of sign(p) * prod m[i][p(i)], the sign from
    the inversion count and the products from ``LaurentPolynomial.__mul__``."""
    n = len(m.rows)
    one = monomial((0, 0), 1, m.denominator)
    acc = LaurentPolynomial((), m.denominator)
    for perm in itertools.permutations(range(n)):
        factors = [m.entries[i * n + j] for i, j in enumerate(perm)]
        if any(f.is_zero for f in factors):
            continue
        term = one
        for f in factors:
            term = term * f
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = acc - term if inversions % 2 else acc + term
    return acc


def walk_determinant(m) -> LaurentPolynomial:
    """The signed sum over the transversals of the nonzero entry terms,
    walked row by row with a bitmask of used columns; the used columns above
    the chosen one are the inversions each step adds to the parity."""
    n = len(m.rows)
    options = [
        [(j, term) for j in range(n) for term in m.entries[i * n + j].terms] for i in range(n)
    ]
    acc: dict = {}

    def walk(row, used, parity, x, y, coeff):
        if row == n:
            acc[x, y] = acc.get((x, y), 0) + (-coeff if parity else coeff)
            return
        for col, ((dx, dy), c) in options[row]:
            if not used >> col & 1:
                flip = (used >> col).bit_count() & 1
                walk(row + 1, used | 1 << col, parity ^ flip, x + dx, y + dy, coeff * c)

    walk(0, 0, 0, 0, 0, 1)
    return LaurentPolynomial(tuple(acc.items()), m.denominator)


def format_by_fractions(p: LaurentPolynomial) -> str:
    """``format_laurent`` with each exponent a ``Fraction``: the oracle for
    its reduction by ``math.gcd``."""
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


def gauge_sum(gauge) -> tuple:
    """The sum of a gauge's exponent pairs."""
    return tuple(sum(pair[k] for pair in gauge.values()) for k in (0, 1))


def rational_terms(p: LaurentPolynomial) -> dict:
    """{(x/D, y/D): coefficient}, comparable across denominators."""
    d = p.denominator
    return {(Fraction(x, d), Fraction(y, d)): c for (x, y), c in p.terms}


def test_laurent_arithmetic_is_exact():
    p = monomial((1, 0)) + monomial((0, 1), Fraction(1, 3))
    q = p * p
    assert dict(q.terms)[(0, 2)] == Fraction(1, 9)
    assert (p - p).is_zero


def test_format_constant_first_then_lex_descending():
    p = (
        monomial((0, 0), 3)
        - monomial((1, 0))
        - monomial((0, 1))
        - monomial((-1, -1))
    )
    assert format_laurent(p) == "3 - z1 - z2 - z1^-1*z2^-1"
    assert format_laurent(LaurentPolynomial(())) == "0"


@given(st.data())
def test_format_reduces_exponents_as_fractions_do(data):
    d = data.draw(st.integers(1, 60), label="denominator")
    exponent = st.integers(-3, 3).map(lambda k: k * d) | st.integers(-3 * d, 3 * d)
    coefficient = st.sampled_from([1, -1]) | st.integers(-9, 9)
    terms = data.draw(st.lists(st.tuples(st.tuples(exponent, exponent), coefficient), max_size=8))
    constant = data.draw(coefficient, label="constant")
    p = LaurentPolynomial(tuple(terms) + (((0, 0), constant),), d)
    assert format_laurent(p) == format_by_fractions(p)


def test_constructor_merges_equal_exponents():
    cancelled = LaurentPolynomial((((0, 0), 1), ((0, 0), -1)))
    assert cancelled.is_zero
    assert format_laurent(cancelled) == "0"
    doubled = LaurentPolynomial((((1, 0), 1), ((1, 0), 1)))
    assert doubled == monomial((1, 0), 2)
    assert format_laurent(doubled) == "2*z1"


def test_honeycomb_partition_function(honeycomb):
    det = determinant(kasteleyn_matrix(honeycomb))
    assert format_laurent(det) == "3 - z1 - z2 - z1^-1*z2^-1"


def test_gauge_changes_shift_exponents_only():
    for name in SQUARE_NAMES + COVER_NAMES:
        dimer = subject(name)
        graph = build_graph(dimer)
        base = determinant(kasteleyn_matrix(dimer)).normalized()
        for seed in range(5):
            gauge = make_gauge(graph, f"random:{seed}")
            det = determinant(kasteleyn_matrix(dimer, gauge)).normalized()
            assert det == base, (name, seed)


@pytest.mark.parametrize("name", GAUGE_NAMES)
def test_the_tree_gauge_erases_the_input_gauge(name):
    """Exact potentials absorb a row and column gauge: the gauged rows are
    those of the identity gauge, and the shift loses D times its sum."""
    dimer = subject(name)
    graph = build_graph(dimer)
    d = graph.denominator
    rows, (sx, sy) = _tree_gauge(kasteleyn_matrix(dimer))
    for seed in range(5):
        gauge = make_gauge(graph, f"random:{seed}")
        gx, gy = gauge_sum(gauge)
        gauged = _tree_gauge(kasteleyn_matrix(dimer, gauge))
        assert gauged == (rows, (sx - d * gx, sy - d * gy)), (name, seed)


@pytest.mark.parametrize("name", GAUGE_NAMES)
def test_a_gauge_multiplies_the_determinant_by_its_monomial(name):
    """det(K with gauge g) = z^(sum of g) det(K), term for term."""
    dimer = subject(name)
    graph = build_graph(dimer)
    d = graph.denominator
    det = determinant(kasteleyn_matrix(dimer))
    for seed in range(5):
        gauge = make_gauge(graph, f"random:{seed}")
        gx, gy = gauge_sum(gauge)
        expected = monomial((d * gx, d * gy), 1, d) * det
        assert determinant(kasteleyn_matrix(dimer, gauge)) == expected, (name, seed)


def test_mixed_exponent_denominators_are_refused():
    p, q = monomial((1, 0), 1, 2), monomial((1, 0), 1, 3)
    for combine in (p.__add__, p.__sub__, p.__mul__):
        with pytest.raises(ValueError, match="different denominators"):
            combine(q)


def test_unknown_gauge_rejected(honeycomb):
    with pytest.raises(ValueError, match="unknown gauge"):
        make_gauge(build_graph(honeycomb), "hadamard")


def test_honeycomb_matching_count(honeycomb):
    assert len(enumerate_matchings(build_graph(honeycomb))) == 6


def test_boltzmann_monomials_match_determinant_support(honeycomb):
    graph = build_graph(honeycomb)
    det = determinant(kasteleyn_matrix(honeycomb))
    exps = {a for a, _ in det.terms}
    for m in enumerate_matchings(graph):
        ((a, c),) = boltzmann_monomial(graph, m).terms
        assert c == 1 and a in exps


@pytest.mark.parametrize("name", SQUARE_NAMES + COVER_NAMES)
def test_determinant_counts_matchings(name):
    assert det_matches_matchings(subject(name))


@pytest.mark.parametrize("name", SQUARE_NAMES + ["p1p1-seed@2x2"])
def test_determinant_is_leibniz_sum(name):
    m = kasteleyn_matrix(subject(name))
    assert determinant(m) == leibniz_determinant(m)


@pytest.mark.parametrize("name", PARTITION_NAMES)
@pytest.mark.parametrize("gauge", ["trivial", "random:7"])
def test_determinant_is_walk_sum(name, gauge):
    dimer = subject(name)
    m = kasteleyn_matrix(dimer, make_gauge(build_graph(dimer), gauge))
    assert determinant(m) == walk_determinant(m)


def test_honeycomb_three_by_three_coefficients_count_its_matchings():
    """15,162 is the number of perfect matchings that enumeration finds,
    too many to enumerate in every test run."""
    det = determinant(kasteleyn_matrix(subject("honeycomb@3x3")))
    assert sum(abs(c) for _, c in det.terms) == 15162


def _matrix(rows, n_cols) -> KasteleynMatrix:
    """A matrix of constants, ``rows`` a list of rows of ints."""
    entries = tuple(LaurentPolynomial((((0, 0), c),)) for row in rows for c in row)
    return KasteleynMatrix(tuple(range(len(rows))), tuple(range(n_cols)), entries, 1)


@pytest.mark.parametrize(
    "m",
    [
        _matrix([[1, 1, 1], [1, 1, 1]], 3),  # not square
        _matrix([[1, 0, 0], [1, 0, 0], [1, 1, 1]], 3),  # no transversal
        _matrix([[1, 1], [1, 1]], 2),  # transversals that cancel
    ],
    ids=["non-square", "no-transversal", "cancelling"],
)
def test_determinant_is_zero_polynomial(m):
    assert determinant(m).is_zero


def test_determinant_lifts_large_coefficients():
    """Coefficients past 2^200 come out exact, and so does the oracle's
    lift over several primes."""
    big = 2**70 + 1
    rows = [
        [[((1, 0), big), ((0, 0), 3)], [((0, 1), -1)], [((0, 0), 1)]],
        [[((0, 0), 1)], [((-1, 0), -big), ((0, 1), 2)], [((0, 0), big)]],
        [[((0, -1), 5)], [((0, 0), 1)], [((1, 1), -big)]],
    ]
    entries = tuple(LaurentPolynomial(tuple(terms)) for row in rows for terms in row)
    m = KasteleynMatrix((0, 1, 2), (0, 1, 2), entries, 1)
    det = determinant(m)
    assert det == leibniz_determinant(m) == modular_determinant(m)
    assert max(abs(c) for _, c in det.terms) > 2**200


# entries that vanish on z1 = 1, on z1 = z2 and on z2 = 1
VANISHING = [
    (((0, 0), 1), ((1, 0), -1)),
    (((1, 0), 1), ((0, 1), -1)),
    (((0, 0), 2), ((0, -1), -2)),
]
TERM = st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.sampled_from([1, -1, 2, -2]))
ENTRY = st.one_of(
    st.just(()), st.sampled_from(VANISHING), st.lists(TERM, min_size=1, max_size=3).map(tuple)
)
Z1_MINUS_1 = LaurentPolynomial((((1, 0), 1), ((0, 0), -1)))
# factors for a row copied into another one: the copy makes det identically zero
FACTORS = [monomial((0, 0)), Z1_MINUS_1, monomial((0, 1), -2)]


@st.composite
def sparse_matrices(draw) -> KasteleynMatrix:
    """A random sparse n x n matrix, n <= 5, with at times row i multiplied
    by z1 - 1 and a multiple of row i copied into row j."""
    n = draw(st.integers(1, 5))
    rows = [[LaurentPolynomial(draw(ENTRY)) for _ in range(n)] for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        rows[i] = [e * Z1_MINUS_1 for e in rows[i]]
    if i != j and draw(st.booleans()):
        factor = draw(st.sampled_from(FACTORS))
        rows[j] = [e * factor for e in rows[i]]
    return KasteleynMatrix(tuple(range(n)), tuple(range(n)), tuple(sum(rows, [])), 1)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_determinant_is_leibniz_sum_on_random_sparse_matrices(m):
    assert determinant(m) == leibniz_determinant(m)


def sign_twist_product(base: LaurentPolynomial) -> dict:
    """``rational_terms`` of prod P(s1 z1^(1/2), s2 z2^(1/2)) over s in
    {+1,-1}^2, normalized, for P the normalized ``base``."""
    base = base.normalized()
    d = base.denominator
    assert all(x % d == 0 and y % d == 0 for (x, y), _ in base.terms)
    product = monomial((0, 0), 1, 2)  # exponents over 2
    for s1 in (1, -1):
        for s2 in (1, -1):
            twisted = [
                ((x // d, y // d), c * s1 ** (x // d) * s2 ** (y // d))
                for (x, y), c in base.terms
            ]
            product = product * LaurentPolynomial(twisted, 2)
    return rational_terms(product.normalized())


@pytest.mark.parametrize("name", ["honeycomb", "cp2-seed", "p1p1-seed"])
def test_two_by_two_cover_determinant_is_product_over_sign_twists(name):
    """Kenyon-Okounkov-Sheffield: the normalized determinant of the 2x2 cover
    is +-prod P(s1 z1^(1/2), s2 z2^(1/2)) over s in {+1,-1}^2, P normalized."""
    want = sign_twist_product(determinant(kasteleyn_matrix(catalog.build(name))))
    got = rational_terms(determinant(kasteleyn_matrix(subject(f"{name}@2x2"))).normalized())
    assert got in (want, {a: -c for a, c in want.items()})


def cube_root_norm(base: LaurentPolynomial, axis: int) -> LaurentPolynomial:
    """prod P(xi t) over xi^3 = 1, t the variable of ``axis`` and P the
    normalized ``base`` with its exponents divided by D: the determinant of
    multiplication by P on Z[z^+-1][t]/(t^3 - Z), in which c z^e t^j lands
    in row r at Z^q for e_axis + j = 3q + r, with Z in place of t."""
    base = base.normalized()
    d = base.denominator
    assert all(x % d == 0 and y % d == 0 for (x, y), _ in base.terms)
    cells: dict = {}
    for j in range(3):
        for (x, y), c in base.terms:
            e = [x // d, y // d]
            e[axis], r = divmod(e[axis] + j, 3)
            cells.setdefault((r, j), []).append((tuple(e), c))
    entries = tuple(LaurentPolynomial(cells.get((r, j), ()), 1) for r in range(3) for j in range(3))
    return leibniz_determinant(KasteleynMatrix((0, 1, 2), (0, 1, 2), entries, 1))


@pytest.mark.parametrize("kx, ky", [(3, 1), (1, 3)])
@pytest.mark.parametrize("name", EMBEDDED)
def test_three_fold_cover_determinant_is_the_norm_over_cube_roots(name, kx, ky):
    """Kenyon-Okounkov-Sheffield at an odd cover: the normalized determinant
    of the 3x1 or 1x3 cover is prod P(xi t) over the cube roots of unity xi,
    t the variable of the tripled axis, with no sign or substitution."""
    norm = cube_root_norm(determinant(kasteleyn_matrix(catalog.build(name))), int(ky == 3))
    got = determinant(kasteleyn_matrix(cover(catalog.build(name), kx, ky)))
    assert rational_terms(got.normalized()) == rational_terms(norm.normalized())


@pytest.mark.parametrize("name", ["honeycomb", "bl3-seed"])
def test_four_by_four_cover_determinant_is_product_over_sign_twists(name):
    """The 2x2 cover oracle applied to the 2x2 cover (n = 48): the 2x2 cover
    of it against the product of its determinant over the four sign twists,
    up to sign and one substitution z_i -> -z_i, since the Kasteleyn sign
    class of a cover can differ from the lifted one (bl3-seed needs
    z1 -> -z1 already at 2x2)."""
    two = cover(catalog.build(name), 2, 2)
    want = sign_twist_product(determinant(kasteleyn_matrix(two)))
    got = rational_terms(determinant(kasteleyn_matrix(cover(two, 2, 2))).normalized())
    assert all(x.denominator == y.denominator == 1 for x, y in got)
    substituted = [
        {(x, y): sign * c * s1 ** int(x) * s2 ** int(y) for (x, y), c in got.items()}
        for sign in (1, -1)
        for s1, s2 in ((1, 1), (-1, 1), (1, -1))
    ]
    assert want in substituted


def newton_boundary(p: LaurentPolynomial) -> list:
    """The Newton polygon's edges, each split into primitive vectors (one
    per unit of lattice length), sorted."""
    hull = convex_hull(sorted(exp for exp, _ in p.terms))
    out = []
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        g = math.gcd(bx - ax, by - ay)
        assert g % p.denominator == 0  # exponents differ by integer vectors
        out += [((bx - ax) // g, (by - ay) // g)] * (g // p.denominator)
    return sorted(out)


def newton_matches_zigzags(dimer) -> bool:
    """The Newton polygon of det K has the negated zigzag classes as its
    primitive boundary vectors, as a multiset."""
    det = determinant(kasteleyn_matrix(dimer))
    return newton_boundary(det) == sorted((-p.cls.a, -p.cls.b) for p in zigzag_paths(dimer))


# the catalog, its covers up to 3x3, and honeycomb 4x4
NEWTON_NAMES = [
    f"{name}@{kx}x{ky}" if kx * ky > 1 else name
    for name in catalog.NAMES
    for kx in (1, 2, 3)
    for ky in (1, 2, 3)
] + ["honeycomb@4x4"]


@pytest.mark.parametrize("name", NEWTON_NAMES)
def test_newton_polygon_boundary_is_the_zigzag_classes(name):
    assert newton_matches_zigzags(subject(name))


@pytest.mark.parametrize("name", ("honeycomb",) + catalog.SEED_NAMES)
def test_face_classes_map_onto_the_newton_polygon_edges(name):
    """Faces are walls: one unimodular map sends the face classes of the
    dimer onto the primitive edge vectors of the Newton polygon of its
    partition function, each edge once per unit of lattice length."""
    dimer = catalog.build(name)
    edges = newton_boundary(determinant(kasteleyn_matrix(dimer)))
    assert compare_up_to_unimodular(mutation_directions(dimer), edges) is not None


@pytest.mark.parametrize(
    "name",
    [
        f"{name}@{kx}x{ky}" if kx * ky > 1 else name
        for name in catalog.NAMES
        for kx, ky in ((1, 1), (1, 2), (2, 1), (2, 2))
    ],
)
def test_newton_corner_coefficients_are_units(name):
    """Every vertex of the Newton polygon of det K carries coefficient +-1:
    the extremal Boltzmann monomials are each reached by one matching."""
    det = determinant(kasteleyn_matrix(subject(name)))
    coefficients = dict(det.terms)
    assert all(abs(coefficients[v]) == 1 for v in convex_hull(coefficients))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(catalog.NAMES), st.integers(min_value=0, max_value=10**6))
def test_newton_polygon_boundary_survives_unimodular_change(name, seed):
    assert newton_matches_zigzags(unimodular_image(catalog.build(name), random.Random(seed)))


@pytest.mark.parametrize("name", SQUARE_NAMES)
def test_sign_assignment_satisfies_face_condition(name):
    dimer = catalog.build(name)
    signs = kasteleyn_signs(dimer)
    assert set(signs) <= {1, -1}
    from tropdimer.dimer import faces, validate

    if validate(dimer).self_intersecting:
        assert set(signs) == {1}
        return
    for face in faces(dimer):
        k = len(face.edge_indices) // 2
        prod = 1
        for idx in face.edge_indices:
            prod *= signs[idx]
        assert prod == (-1) ** (k + 1)


def test_signs_are_one_list_kept_on_the_dimer(honeycomb):
    signs = kasteleyn_signs(honeycomb)
    assert isinstance(signs, list)
    assert kasteleyn_signs(honeycomb) is signs


def column_order_solution(rows, n: int) -> list:
    """The earlier GF(2) solve of the sign system, kept as the oracle of
    `kasteleyn_signs`: Gaussian elimination column by column, each pivot
    row swapped up and its column cleared from every other row, free
    variables 0."""
    rows = list(rows)
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
    return x


def column_order_signs(dimer) -> list:
    """The oracle's signs: one int per face, bit c edge c and bit n the
    parity (k + 1) % 2; all-positive on an immersed dimer."""
    n = len(build_graph(dimer).edges)
    if validate(dimer).self_intersecting:
        return [1] * n
    rows = []
    for face in faces(dimer):
        row = (len(face.edge_indices) // 2 + 1) % 2 << n
        for idx in face.edge_indices:
            row ^= 1 << idx
        rows.append(row)
    return [(-1) ** b for b in column_order_solution(rows, n)]


@pytest.mark.parametrize("name", PARTITION_NAMES)
def test_signs_of_the_partition_rungs_are_the_column_order_ones(name):
    dimer = subject(name)
    assert kasteleyn_signs(dimer) == column_order_signs(dimer)


SIGN_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 3), (2, 3))


@pytest.mark.parametrize("name", catalog.NAMES)
def test_signs_of_the_catalog_covers_are_the_column_order_ones(name):
    """The dual-forest peel gives the oracle's signs on every cover shape,
    plain and as a seeded unimodular image; immersed inputs stay
    all-positive."""
    rng = random.Random(name)
    for kx, ky in SIGN_SHAPES:
        base = cover(catalog.build(name), kx, ky)
        for dimer in (base, unimodular_image(base, rng)):
            signs = kasteleyn_signs(dimer)
            assert signs == column_order_signs(dimer), (name, kx, ky)
            if validate(dimer).self_intersecting:
                assert set(signs) == {1}


def test_matrix_after_the_signs_traces_no_face_again(honeycomb, monkeypatch):
    """The matrix reads the sign list kept by `kasteleyn_signs`, so it
    solves no face system of its own."""
    kasteleyn_signs(honeycomb)
    calls = []
    traced = kasteleyn.faces
    monkeypatch.setattr(kasteleyn, "faces", lambda d: calls.append(d) or traced(d))
    kasteleyn_matrix(honeycomb)
    assert calls == []


def test_determinant_takes_a_cycle_off_the_lattice():
    """Over D = 2, the one cycle of this 2x2 matrix has exponent sum (1, 0):
    no gauge makes every entry exponent an integer pair, and the elimination
    needs none, since it runs on the numerators over D."""
    one, half = monomial((0, 0), 1, 2), monomial((1, 0), 1, 2)
    m = KasteleynMatrix((0, 1), (2, 3), (one, one, one, half), 2)
    det = determinant(m)
    assert format_laurent(det) == "-1 + z1^1/2"
    assert det == leibniz_determinant(m)


# ---------------------------------------------------------------------------
# the modular oracle: the determinant as it ran before the Bareiss
# elimination, on all n x n rows made integral by the tree gauge, without
# the unit elimination


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


def modular_determinant(m: KasteleynMatrix) -> LaurentPolynomial:
    """The determinant by evaluation modulo primes.  Hadamard's inequality
    with Cauchy's coefficient estimate bounds every |coefficient| by
    sqrt(prod_i sum_j (sum |c_ij|)^2); four assignment problems (the
    tropical determinant) give a box [x0, x1] x [y0, y1] holding every
    transversal's monomial; for each prime from ``_primes`` until their
    product exceeds twice the bound, det mod p at the nodes of a
    (W1+1) x (W2+1) grid, W = box width, by one elimination (``_det_mod``;
    a prime whose nodes no single pivot order serves is skipped), then
    interpolation along z1 and z2 and the Chinese remainder theorem to
    balanced integers.  Its cost grows with the box, so with the size of
    the exponents."""
    n, den = len(m.rows), m.denominator
    zero = LaurentPolynomial((), den)
    if n != len(m.cols):
        return zero
    rows, (sx, sy) = _tree_gauge(m)
    reach = [{} for _ in rows]  # entry -> (least x, -greatest x, least y, -greatest y)
    for i, row in enumerate(rows):
        for j, ts in row.items():
            xs, ys, _ = zip(*ts)
            reach[i][j] = min(xs), -max(xs), min(ys), -max(ys)
    box = [_assignment([{j: r[k] for j, r in row.items()} for row in reach]) for k in range(4)]
    if None in box:  # no transversal
        return zero
    x0, x1, y0, y1 = box[0], -box[1], box[2], -box[3]
    bound2 = 1
    for row in rows:
        bound2 *= sum(sum(abs(c) for _, _, c in ts) ** 2 for ts in row.values())
    if rows:  # z^(-x0, -y0) times row 0: a polynomial of degree (W1, W2), W = box width
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
        ((den * (x0 + kx) - sx, den * (y0 + ky) - sy), c - modulus if 2 * c > modulus else c)
        for kx, cs in enumerate(coeffs)
        for ky, c in enumerate(cs)
    ]
    return LaurentPolynomial(tuple(terms), den)


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
    """det mod p of the gauged rows at each node (z1, z2) = (a[k], b[l]),
    indexed l * len(a) + k, or None when no pivot order serves every node:
    one elimination on sparse rows of per-node values, an entry zero at
    every node dropped, an entry 1 * z^e sharing the list of z^e (no list is
    changed in place).  Each step takes the remaining row with the fewest
    entries (none: det is zero) and, among its entries nonzero at every
    node, the column held by the fewest remaining rows, inverted if another
    row holds it."""
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


def _interpolate(rows, points: list, p: int) -> list:
    """For each row of values at the points, the coefficients, lowest degree
    first, of the polynomial of degree below len(points) through them, mod
    p, the points x_i = (z + i) * t: one inverse Vandermonde table per call,
    one reduction per coefficient.  Column i is prod_{j != i} (x - x_j),
    synthetic divisions of the master prod_j (x - x_j), and the value at x_i
    is first divided by t^(k-1) i! (k-1-i)! (-1)^(k-1-i)."""
    k = len(points)
    master = [1]  # highest degree first
    for r in points:
        master = [(u - r * v) % p for u, v in zip(master + [0], [0] + master)]
    factorial = list(itertools.accumulate(range(1, k), lambda f, i: f * i % p, initial=1))
    scale = pow(points[1] - points[0], k - 1, p) if k > 1 else 1
    weights = _inverses([(-1) ** (k - 1 - i) * scale * factorial[i] * factorial[k - 1 - i] % p
                         for i in range(k)], p)
    table = [quotient := [1] * k]  # degree k - 1 of master / (x - x_i) for each i, then down
    for u in master[1:k]:
        table.append(quotient := [(u + r * q) % p for r, q in zip(points, quotient)])
    scaled = ([w * v % p for w, v in zip(weights, values)] for values in rows)
    return [[sum(map(mul, row, values)) % p for row in reversed(table)] for values in scaled]


def test_a_prime_whose_nodes_share_no_pivot_order_is_skipped(monkeypatch, honeycomb):
    """On the nodes 1, 2, ... of both axes, entries of the honeycomb matrix
    vanish at some nodes and not at others, so no pivot order serves them
    all: that prime gives no residue and the next one draws its own nodes."""
    primes, draw = [], _nodes

    def nodes(p, *counts):
        primes.append(p)
        return [list(range(1, c + 1)) for c in counts] if len(primes) == 1 else draw(p, *counts)

    monkeypatch.setitem(globals(), "_nodes", nodes)
    m = kasteleyn_matrix(honeycomb)
    assert format_laurent(modular_determinant(m)) == "3 - z1 - z2 - z1^-1*z2^-1"
    assert len(primes) == 2


def test_one_elimination_per_prime(monkeypatch):
    """honeycomb 2x3 has a grid of nodes, and one elimination serves them all."""
    calls, nodes, det_mod = [], _nodes, _det_mod
    monkeypatch.setitem(globals(), "_nodes", lambda *args: calls.append("nodes") or nodes(*args))
    monkeypatch.setitem(globals(), "_det_mod", lambda *args: calls.append("det") or det_mod(*args))
    assert not modular_determinant(kasteleyn_matrix(subject("honeycomb@2x3"))).is_zero
    assert calls and calls == ["nodes", "det"] * (len(calls) // 2)


def test_primes_are_every_prime_below_two_to_the_thirty_in_descending_order():
    """The first primes that ``_primes`` yields are, by trial division, all
    the primes from the last of them up to 2^30, each one CPython digit."""
    first = list(itertools.islice(_primes(), 20))
    small = [q for q in range(2, 1 << 15) if all(q % r for r in range(2, math.isqrt(q) + 1))]
    below = [q for q in range((1 << 30) - 1, first[-1] - 1, -2) if all(q % r for r in small)]
    assert first == below
    assert first[0] == (1 << 30) - 35


def test_the_partition_ladder_takes_one_prime(monkeypatch):
    """honeycomb 2x3's coefficients are far below 2^29, so one prime, one
    grid of nodes, gives its determinant."""
    calls, nodes = [], _nodes
    monkeypatch.setitem(globals(), "_nodes", lambda *args: calls.append(args[0]) or nodes(*args))
    m = kasteleyn_matrix(subject("honeycomb@2x3"))
    assert modular_determinant(m) == determinant(m)
    assert len(calls) == 1


def test_coefficients_between_the_digit_and_two_to_the_sixty_one(monkeypatch):
    """Coefficients near 2^50 fit one prime below 2^61 but need two below
    2^30, joined by the Chinese remainder theorem."""
    big = (1 << 30) + 3
    rows = [
        [[((1, 0), big), ((0, 0), 1)], [((0, 0), 2)]],
        [[((0, 1), 3)], [((0, 0), (1 << 20) + 1), ((1, 1), -5)]],
    ]
    entries = tuple(LaurentPolynomial(tuple(terms)) for row in rows for terms in row)
    m = KasteleynMatrix((0, 1), (0, 1), entries, 1)
    calls, nodes = [], _nodes
    monkeypatch.setitem(globals(), "_nodes", lambda *args: calls.append(args[0]) or nodes(*args))
    det = modular_determinant(m)
    assert det == leibniz_determinant(m) == determinant(m)
    assert 1 << 30 < max(abs(c) for _, c in det.terms) < 1 << 61
    assert len(calls) > 1


def test_primes_are_tested_once_per_process(monkeypatch, honeycomb):
    """Two generators advanced in turn, then the second ten primes past the
    first, yield the same primes and leave each one once in the module's
    list; one determinant leaves 2^30 - 35 there."""
    monkeypatch.setitem(globals(), "_PRIMES", [])
    first, second = _primes(), _primes()
    pairs = [(next(first), next(second)) for _ in range(10)]
    ahead = list(itertools.islice(second, 10))
    primes = [a for a, _ in pairs] + list(itertools.islice(first, 10))
    assert primes == [b for _, b in pairs] + ahead == sorted(set(primes), reverse=True)
    assert _PRIMES == primes
    monkeypatch.setitem(globals(), "_PRIMES", [])
    modular_determinant(kasteleyn_matrix(honeycomb))
    assert _PRIMES == [(1 << 30) - 35]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16), st.sampled_from((0, 1)), st.data())
def test_interpolation_is_the_newton_form_through_every_node(count, axis, data):
    """On either axis's ``_nodes`` progression mod the first prime, the
    inverse Vandermonde table gives polynomials of degree below the node
    count, the one through the values (Newton's form) by uniqueness: each
    takes the given value at every node."""
    p = next(_primes())
    nodes = _nodes(p, count, count)[axis]
    residues = st.lists(st.integers(0, p - 1), min_size=count, max_size=count)
    rows = data.draw(st.lists(residues, min_size=1, max_size=4))
    polys = _interpolate(rows, nodes, p)
    for poly, values in zip(polys, rows):
        assert len(poly) == count
        assert [sum(c * pow(x, d, p) for d, c in enumerate(poly)) % p for x in nodes] == values


def least_transversal(costs):
    """The least total over the permutations that stay on the support of
    ``costs``, or None when no permutation does: the brute-force oracle."""
    totals = [
        sum(costs[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(len(costs)))
        if all(j in costs[i] for i, j in enumerate(perm))
    ]
    return min(totals, default=None)


@st.composite
def cost_tables(draw):
    """n <= 6 sparse rows of small costs, negative and repeated ones among
    them, with empty rows and columns."""
    n = draw(st.integers(0, 6))
    cols = st.lists(st.integers(0, n - 1), unique=True, max_size=n) if n else st.just([])
    return [{j: draw(st.integers(-3, 3)) for j in draw(cols)} for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(cost_tables())
def test_assignment_is_the_least_transversal(costs):
    assert _assignment(costs) == least_transversal(costs)


# ---------------------------------------------------------------------------
# the unit reduction


UNIT = st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.sampled_from([1, -1]))
UNIT_HEAVY_ENTRY = st.one_of(
    UNIT.map(lambda t: (t,)), UNIT.map(lambda t: (t,)), UNIT.map(lambda t: (t,)),
    st.just(()), st.lists(TERM, min_size=2, max_size=3).map(tuple),
)


@st.composite
def unit_heavy_matrices(draw) -> KasteleynMatrix:
    """A sparse n x n matrix, n <= 7, mostly of units +-z^e, e in [-2, 2]^2,
    with some entries of several terms and some zero; or a monomial
    permutation matrix (k = 0); or one of the first kind with a row a unit
    multiple of another (a row cancels when either is a pivot row)."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["units", "permutation", "copy"]))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        rows = [[(draw(UNIT),) if j == perm[i] else () for j in range(n)] for i in range(n)]
    else:
        rows = [[draw(UNIT_HEAVY_ENTRY) for _ in range(n)] for _ in range(n)]
    rows = [[LaurentPolynomial(terms) for terms in row] for row in rows]
    if kind == "copy" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = LaurentPolynomial((draw(UNIT),))
        rows[j] = [e * factor for e in rows[i]]
    return KasteleynMatrix(tuple(range(n)), tuple(range(n)), tuple(sum(rows, [])), 1)


@settings(max_examples=150, deadline=None)
@given(unit_heavy_matrices())
def test_the_unit_reduction_keeps_the_determinant(m):
    det = determinant(m)
    assert det == modular_determinant(m)
    if len(m.rows) <= 5:
        assert det == leibniz_determinant(m)


def support_permutation(m):
    """The permutation of a matrix with one nonzero entry per row and per
    column, as a tuple, or None."""
    n = len(m.rows)
    perm = [[j for j in range(n) if not m.entries[i * n + j].is_zero] for i in range(n)]
    if all(len(js) == 1 for js in perm) and len({js[0] for js in perm}) == n:
        return tuple(js[0] for js in perm)
    return None


def test_the_unit_heavy_matrices_reach_every_case_of_the_reduction():
    """The strategy reaches k = 0 with odd and even pivot permutations (on a
    monomial permutation matrix the pivots are its entries, so the pivot
    permutation is its own), a row that cancels to nothing, and k >= 2 rows
    left on columns that are not a prefix of the original order, where
    Bareiss runs on the columns' own labels and its signs must still read
    their positions among the columns left."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(unit_heavy_matrices())
    def collect(m):
        _, rows, holders = kasteleyn._pack(m)
        cols = list(range(len(rows)))
        unit, _ = kasteleyn._unit_reduce(rows, holders, cols)
        if unit == 0:
            seen.add("a row cancels")
            assert determinant(m).is_zero
        elif not rows and (perm := support_permutation(m)) is not None:
            n = len(perm)
            odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
            seen.add("k = 0, odd" if odd else "k = 0, even")
            assert len(determinant(m).terms) == 1
        elif len(rows) >= 2 and cols != list(range(len(cols))):
            seen.add("k >= 2, columns not a prefix")
            assert determinant(m) == leibniz_determinant(m)

    collect()
    assert seen == {"a row cancels", "k = 0, odd", "k = 0, even", "k >= 2, columns not a prefix"}


@pytest.mark.parametrize("name", PARTITION_NAMES + [
    name + size for size in ("@1x2", "@2x1", "@2x2", "@3x3") for name in catalog.NAMES
] + ["bl3-seed@4x4", "honeycomb@4x4"])  # the last two leave dense complements
@pytest.mark.parametrize("gauge", ["trivial", "random:3"])
def test_the_unit_reduction_keeps_every_term(name, gauge):
    dimer = subject(name)
    m = kasteleyn_matrix(dimer, make_gauge(build_graph(dimer), gauge))
    assert determinant(m).terms == modular_determinant(m).terms


@pytest.mark.parametrize("name, most", [("honeycomb@2x3", 4), ("honeycomb@5x5", 10)])
def test_the_elimination_runs_on_the_schur_complement(monkeypatch, name, most):
    """The unit entries leave a k x k matrix: honeycomb 2x3 (n = 18) at most
    4 x 4, honeycomb 5x5 (n = 75) at most 10 x 10, and one Bareiss
    elimination takes its determinant."""
    sizes, bareiss = [], kasteleyn._bareiss
    monkeypatch.setattr(kasteleyn, "_bareiss",
                        lambda rows, *state: sizes.append(len(rows)) or bareiss(rows, *state))
    m = kasteleyn_matrix(subject(name))
    assert not determinant(m).is_zero
    assert len(sizes) == 1 and sizes[0] <= most < len(m.rows)


# ---------------------------------------------------------------------------
# the Bareiss elimination


# exponents in [-3, 3]^2, packed as x*s + y with s = 13: a product's |y| <= 6 < s / 2
POLYNOMIAL = st.dictionaries(
    st.builds(lambda x, y: 13 * x + y, st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-4, 4).filter(bool), max_size=6
)


@settings(max_examples=200, deadline=None)
@given(POLYNOMIAL, POLYNOMIAL.filter(bool))
def test_exact_division_undoes_a_product(f, g):
    """(f * g) / g is f, by a shift for a monomial g and by long division
    on the greatest key, the lex-greatest exponent, otherwise."""
    assert kasteleyn._divide(kasteleyn._add_product({}, f, g), g) == f


def sheared(dimer: DualDimer, shear) -> DualDimer:
    """The image of the dimer under ``shear``, a linear map on (x, y)."""
    polytopes = tuple(
        Polytope(p.color, [shear(x, y) for x, y in p.vertices]) for p in dimer.polytopes
    )
    return DualDimer(dimer.denominator, polytopes)


def assert_the_shear_moves_the_determinant(name, shear):
    """Every exponent of the determinant moves by ``shear``, up to a
    monomial, a sign and a twist z_i -> +-z_i (a shear can change the
    Kasteleyn sign class: bl3-seed's changes at k = 1), and the determinant
    takes under 50 ms however large the shear is."""
    base = determinant(kasteleyn_matrix(catalog.build(name)))
    m = kasteleyn_matrix(sheared(catalog.build(name), shear))
    start = time.perf_counter()
    det = determinant(m)
    assert time.perf_counter() - start < 0.05
    d = base.denominator
    moved = LaurentPolynomial(tuple((shear(x, y), c) for (x, y), c in base.terms), d)
    moved = moved.normalized().terms
    twists = [
        {(x, y): sign * s1 ** (x // d % 2) * s2 ** (y // d % 2) * c for (x, y), c in moved}
        for sign, s1, s2 in itertools.product((1, -1), repeat=3)
    ]
    assert dict(det.normalized().terms) in twists


@pytest.mark.parametrize("k", [1, 64, 2**40])
@pytest.mark.parametrize("name", ["honeycomb", "cp2-seed", "bl3-seed"])
def test_a_shear_moves_the_determinant_by_its_exponent_map(name, k):
    """The shear (x, y) -> (x + k y, y)."""
    assert_the_shear_moves_the_determinant(name, lambda x, y: (x + k * y, y))


@pytest.mark.parametrize("k", [1, 64, 2**40])
@pytest.mark.parametrize("name", ["honeycomb", "cp2-seed", "bl3-seed"])
def test_a_vertical_shear_moves_the_determinant_by_its_exponent_map(name, k):
    """The shear (x, y) -> (x, y + k x), which widens the y exponents that
    the elimination packs into x*s + y, so s must grow with them."""
    assert_the_shear_moves_the_determinant(name, lambda x, y: (x, y + k * x))


WIDE = st.integers(-2**40, 2**40)
WIDE_ENTRY = st.one_of(
    st.just(()), st.lists(st.tuples(st.tuples(WIDE, WIDE), st.sampled_from([1, -1, 3])),
                          min_size=1, max_size=3).map(tuple)
)


@st.composite
def wide_sparse_matrices(draw) -> KasteleynMatrix:
    """A random sparse n x n matrix, n <= 5, whose exponent numerators are
    of mixed sign with |x| and |y| up to 2^40, over a denominator D in
    {1, 2, 3, 6}: for D > 1 its cycles are mostly off the lattice, where
    no gauge makes every exponent an integer pair."""
    n, den = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3, 6]))
    entries = tuple(LaurentPolynomial(draw(WIDE_ENTRY), den) for _ in range(n * n))
    return KasteleynMatrix(tuple(range(n)), tuple(range(n)), entries, den)


@settings(max_examples=150, deadline=None)
@given(wide_sparse_matrices())
def test_determinant_is_leibniz_sum_on_wide_exponents(m):
    """The packed keys x*s + y take s from the exponents' extent, so no
    width makes two exponents share a key."""
    assert determinant(m) == leibniz_determinant(m)
