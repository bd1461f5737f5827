import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unimodular_image
from tropdimer import catalog, dimer
from tropdimer.dimer import (
    DualDimer,
    Polytope,
    build_graph,
    dimer_to_tropical_fan,
    faces,
    validate,
    zigzag_paths,
)
from tropdimer.io import SchemaError, parse_dimer
from tropdimer.lattice import Vec2
from tropdimer.tropical import check_balancing, make_fan

V = Vec2


@pytest.mark.parametrize("name", catalog.NAMES)
def test_catalog_passes_validation(name):
    report = validate(catalog.build(name))
    assert report.ok, list(report.lines())


def test_honeycomb_is_embedded(honeycomb):
    assert not validate(honeycomb).self_intersecting


def test_pants_min_is_immersed(pants_min):
    assert validate(pants_min).self_intersecting


def test_validation_catches_mismatched_vertex_sets():
    bad = DualDimer(
        2,
        (
            Polytope("white", ((0, 0), (1, 0), (0, 1))),
            Polytope("black", ((0, 0), (1, 1), (0, 1))),
        ),
    )
    report = validate(bad)
    assert not report.ok
    assert not report.matching_ok


def test_graph_edges_have_stable_ids(honeycomb):
    graph = build_graph(honeycomb)
    assert len(graph.edges) == 9
    ids = [e.edge_id for e in graph.edges]
    assert len(set(ids)) == 9
    for eid in ids:
        assert eid.startswith("w") and "@" in eid


def test_graph_refuses_invalid_dimer():
    bad = DualDimer(
        1,
        (
            Polytope("white", ((0, 0), (1, 0), (0, 1))),
            Polytope("black", ((0, 0), (1, 0), (1, 1))),
        ),
    )
    with pytest.raises(ValueError, match="fails validation"):
        build_graph(bad)


def test_each_stage_is_computed_once_per_dimer(honeycomb):
    for stage in (validate, build_graph, zigzag_paths, faces):
        assert stage(honeycomb) is stage(honeycomb)
    assert isinstance(zigzag_paths(honeycomb), tuple)
    assert isinstance(faces(honeycomb), tuple)


def test_zigzags_and_fan_never_validate(honeycomb, monkeypatch):
    def no_overlap_test(*args, **kwargs):
        raise AssertionError("overlap test ran")

    monkeypatch.setattr(dimer, "_torus_interiors_intersect", no_overlap_test)
    bad = DualDimer(
        2,
        (
            Polytope("white", ((0, 0), (1, 0), (0, 1))),
            Polytope("black", ((0, 0), (1, 1), (0, 1))),
        ),
    )
    with pytest.raises(ValueError, match="zigzag continuation missing"):
        zigzag_paths(bad)
    assert len(zigzag_paths(honeycomb)) == 3
    assert check_balancing(dimer_to_tropical_fan(honeycomb))
    with pytest.raises(AssertionError, match="overlap test ran"):
        validate(honeycomb)


@pytest.mark.parametrize(
    "vertices",
    [
        ((0, 0), (0, 4), (4, 0)),  # clockwise
        ((0, 0), (2, 0), (4, 0), (0, 4)),  # collinear vertex
        ((0, 0), (4, 0), (4, 4), (2, 1), (0, 4)),  # reflex vertex
    ],
)
def test_dimer_refuses_polygons_not_strictly_convex_counterclockwise(vertices):
    with pytest.raises(ValueError, match="strictly convex and counterclockwise"):
        DualDimer(4, (Polytope("white", vertices),))


@pytest.mark.parametrize(
    "vertices,msg",
    [
        (((0, 0), (Fraction(1, 2), 0), (0, 1)), "integer numerators"),
        (((0, 0), (0.5, 0), (0, 1)), "integer numerators"),
        (((0, 0), (True, 0), (0, 1)), "integer numerators"),
        (((0, 0), (1, 0)), "degenerate"),
    ],
    ids=["fraction", "float", "boolean", "two-vertices"],
)
def test_dimer_refuses_vertices_that_are_not_three_integer_pairs(vertices, msg):
    with pytest.raises(ValueError, match=msg):
        DualDimer(2, (Polytope("white", vertices),))
    # the same polygon in a document: the JSON form of 1/2 is a string
    pairs = [[str(c) if isinstance(c, Fraction) else c for c in v] for v in vertices]
    polytopes = [{"color": "white", "vertices": pairs}]
    with pytest.raises(SchemaError):
        parse_dimer(json.dumps({"schema": "tropdimer/1", "denominator": 2, "polytopes": polytopes}))


def test_honeycomb_zigzags(honeycomb):
    classes = sorted((p.cls.a, p.cls.b) for p in zigzag_paths(honeycomb))
    assert classes == [(-2, -1), (1, -1), (1, 2)]


def test_pants_min_fan(pants_min):
    fan = dimer_to_tropical_fan(pants_min)
    assert check_balancing(fan)
    expected = make_fan(((V(1, 1), 1), (V(-2, 1), 1), (V(1, -2), 1)))
    got = {(e.ray, e.multiplicity) for e in fan.edges}
    assert got == {(e.ray, e.multiplicity) for e in expected.edges}


def test_honeycomb_fan_multiplicities(honeycomb):
    fan = dimer_to_tropical_fan(honeycomb)
    assert {(tuple(map(int, (e.ray.x, e.ray.y))), e.multiplicity) for e in fan.edges} == {
        ((-1, -1), 3),
        ((2, -1), 3),
        ((-1, 2), 3),
    }
    assert check_balancing(fan)


def test_faces_undefined_for_immersed(pants_min):
    with pytest.raises(ValueError, match="immersed"):
        faces(pants_min)


def test_honeycomb_has_three_hexagonal_faces(honeycomb):
    fs = faces(honeycomb)
    assert len(fs) == 3
    assert all(len(f.edge_indices) == 6 for f in fs)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(catalog.NAMES), st.integers(min_value=0, max_value=10**6))
def test_zigzag_classes_sum_to_zero_under_unimodular_change(name, seed):
    d = unimodular_image(catalog.build(name), random.Random(seed))
    paths = zigzag_paths(d)  # needs no validation; raises if a zigzag does not close
    assert sum(p.cls.a for p in paths) == 0
    assert sum(p.cls.b for p in paths) == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_fan_balancing_survives_unimodular_change(seed):
    d = unimodular_image(catalog.build("honeycomb"), random.Random(seed))
    assert check_balancing(dimer_to_tropical_fan(d))
