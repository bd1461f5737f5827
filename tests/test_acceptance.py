"""End-to-end acceptance checks, one test per criterion.

Every comparison below is exact: rational arithmetic throughout, zero
tolerance.  Run with ``pytest -v`` to get one pass/fail line per criterion.
"""

import random
from fractions import Fraction

from conftest import unimodular_image
from tropdimer import catalog
from tropdimer.almost_toric import (
    BaseDiagram,
    Chart,
    ChartedSection,
    Node,
    admissible,
    build_inner_torus,
    build_outer_torus,
    curves_equal,
    local_model,
    nodal_trade_exchange,
    trade_all_corners,
    validate_section,
)
from tropdimer.cli import run
from tropdimer.dimer import (
    BLACK,
    WHITE,
    build_graph,
    dimer_to_tropical_fan,
    faces,
    zigzag_paths,
)
from tropdimer.io import parse_dimer, serialize_dimer
from tropdimer.kasteleyn import (
    boltzmann_monomial,
    determinant,
    enumerate_matchings,
    format_laurent,
    kasteleyn_matrix,
    make_gauge,
)
from tropdimer.lattice import RatPolygon, Vec2, dilate, unit_triangle
from tropdimer.mutation import (
    compare_up_to_unimodular,
    euler_characteristic,
    exact_assignment,
    mutate_face,
    mutation_directions,
    seed_directions,
)
from tropdimer.render import render_dimer
from tropdimer.tropical import (
    TropicalPolynomial,
    check_balancing,
    dual_function,
    fan_equal,
    genus_of,
    nonlinearity_locus,
)

V = Vec2
F = Fraction


def test_criterion_01_kasteleyn_determinant():
    honeycomb = catalog.build("honeycomb")
    graph = build_graph(honeycomb)
    paper = determinant(kasteleyn_matrix(honeycomb, make_gauge(graph, "paper")))
    assert format_laurent(paper) == "3 - z1 - z2 - z1^-1*z2^-1"
    reference = paper.normalized()
    for seed in range(10):
        gauge = make_gauge(graph, f"random:{seed}")
        assert determinant(kasteleyn_matrix(honeycomb, gauge)).normalized() == reference


def test_criterion_02_fan_agreement():
    honeycomb = catalog.build("honeycomb")
    n = honeycomb.denominator
    loci = []
    for p in honeycomb.polytopes:
        kind = "convex" if p.color == WHITE else "concave"
        polygon = RatPolygon(tuple(V(F(x, n), F(y, n)) for x, y in p.vertices))
        loci.append(nonlinearity_locus(dual_function(polygon, kind)))
    assert len(loci) == 6
    for other in loci[1:]:
        assert fan_equal(loci[0], other)
    fan = dimer_to_tropical_fan(honeycomb)
    rays = {(int(e.ray.x), int(e.ray.y)): e.multiplicity for e in fan.edges}
    assert rays == {(-1, -1): 3, (2, -1): 3, (-1, 2): 3}
    assert check_balancing(fan)


def test_criterion_03_zigzag_balancing():
    dimers = [catalog.build(name) for name in catalog.NAMES]
    assert len(dimers) == 8
    rng = random.Random(20260824)
    for i in range(100):
        dimers.append(unimodular_image(dimers[i % 8], rng))
    for d in dimers:
        paths = zigzag_paths(d)
        assert sum(p.cls.a for p in paths) == 0
        assert sum(p.cls.b for p in paths) == 0


def test_criterion_04_euler_characteristic():
    for name in catalog.SEED_NAMES:
        assert euler_characteristic(catalog.build(name)) == 0
    honeycomb = catalog.build("honeycomb")
    graph = build_graph(honeycomb)
    assert (len(graph.whites) + len(graph.blacks), len(graph.edges), len(faces(honeycomb))) == (6, 9, 3)
    assert euler_characteristic(honeycomb) == 0


def test_criterion_05_mutation():
    honeycomb = catalog.build("honeycomb")
    weights = exact_assignment(honeycomb)
    fan0 = dimer_to_tropical_fan(honeycomb)
    expected_hulls = {
        0: {
            WHITE: ((F(-2, 3), F(-1, 3)), (F(1, 3), F(1, 6)), (F(-1, 6), F(2, 3))),
            BLACK: ((F(-2, 3), F(1, 6)), (F(-1, 6), F(-1, 3)), (F(1, 3), F(2, 3))),
        },
        1: {
            WHITE: ((F(2, 3), F(1, 3)), (F(5, 3), F(5, 6)), (F(7, 6), F(4, 3))),
            BLACK: ((F(2, 3), F(5, 6)), (F(7, 6), F(1, 3)), (F(5, 3), F(4, 3))),
        },
        2: {
            WHITE: ((F(0), F(0)), (F(1), F(1, 2)), (F(1, 2), F(1))),
            BLACK: ((F(0), F(1, 2)), (F(1, 2), F(0)), (F(1), F(1))),
        },
    }
    for i, face in enumerate(faces(honeycomb)):
        result = mutate_face(honeycomb, face, weights)
        assert result.immersed
        assert len(result.dimer.polytopes) == 2
        n = result.dimer.denominator
        got = {
            p.color: tuple((F(x, n), F(y, n)) for x, y in p.vertices)
            for p in result.dimer.polytopes
        }
        assert got == expected_hulls[i]
        assert fan_equal(dimer_to_tropical_fan(result.dimer), fan0)


def test_criterion_06_matching_oracle():
    for name in catalog.NAMES:
        dimer = catalog.build(name)
        graph = build_graph(dimer)
        if len(graph.whites) != len(graph.blacks):
            continue
        matchings = enumerate_matchings(graph)
        if name == "honeycomb":
            assert len(matchings) == 6
        det = determinant(kasteleyn_matrix(dimer))
        assert sum(abs(c) for _, c in det.terms) == len(matchings)
        counted: dict = {}
        for m in matchings:
            ((a, c),) = boltzmann_monomial(graph, m).terms
            assert c == 1
            counted[a] = counted.get(a, 0) + 1
        assert {a: abs(c) for a, c in det.terms} == counted


def test_criterion_07_mutation_directions():
    for name in catalog.SEED_NAMES:
        fan = catalog.SEED_FAN[name]
        want = seed_directions(catalog.DEL_PEZZO_FANS[fan])
        got = mutation_directions(catalog.build(name))
        assert compare_up_to_unimodular(want, got) is not None, name


def test_criterion_08_genus():
    for d in range(1, 13):
        assert genus_of(dilate(unit_triangle(), d)) == (d - 1) * (d - 2) // 2


def test_criterion_09_nodal_trade_exchange():
    diagram, line = local_model()
    pants = nodal_trade_exchange(diagram, line, 0)
    assert admissible(pants, diagram)
    assert check_balancing(pants.curve)
    assert len(pants.attachments) == 1
    assert curves_equal(nodal_trade_exchange(diagram, pants, 0), line)

    cp2 = trade_all_corners(BaseDiagram(catalog.MOMENT_POLYGONS["cp2"]))
    curve = build_outer_torus(cp2, F(1, 2))
    for i in range(len(cp2.nodes)):
        curve = nodal_trade_exchange(cp2, curve, i)
    assert curves_equal(curve, build_inner_torus(cp2))


def test_criterion_10_section_validation():
    region = RatPolygon((V(-2, -2), V(2, -2), V(2, 2), V(-2, 2)))
    node = Node(V(0, 0), V(0, 1))
    diagram = BaseDiagram(None, nodes=(node,))
    good = ChartedSection(
        (
            Chart(region, TropicalPolynomial(((V(0, 0), F(0)), (V(1, 0), F(0))), False)),
            Chart(
                RatPolygon((V(1, -2), V(3, -2), V(3, 2), V(1, 2))),
                TropicalPolynomial(((V(1, 0), F(0)), (V(2, 0), F(0))), False),
            ),
        ),
        (),
        diagram,
    )
    assert validate_section(good)
    bad = ChartedSection(
        (Chart(region, TropicalPolynomial(((V(0, 0), F(0)), (V(0, 1), F(0))), False)),),
        (),
        diagram,
    )
    assert not validate_section(bad)


def test_criterion_11_cli_robustness(tmp_path, capsys):
    for name in catalog.NAMES:
        text = catalog.catalog_text(name)
        dimer, _ = parse_dimer(text)
        assert serialize_dimer(dimer) == text
    rng = random.Random(11)
    doc = tmp_path / "blob.json"
    for _ in range(200):
        doc.write_bytes(bytes(rng.randrange(256) for _ in range(rng.randrange(64))))
        assert run(["validate", str(doc)]) in (0, 1, 2)
    capsys.readouterr()
    honeycomb = catalog.build("honeycomb")
    first = render_dimer(honeycomb, ("edges", "zigzags"))
    assert first == render_dimer(honeycomb, ("edges", "zigzags"))
    assert first.count("<polygon") == 6
    assert first.count('<g class="zigzag"') == 3
