"""Every stage succeeds on every valid dimer the toolkit makes.

The subjects are the catalog entries and the results of mutating each face
of the embedded ones; each is checked on random unimodular images.  The
overlap verdict of `validate` is also checked against the all-pairs brute
force on them and on the torus covers of the catalog up to 3x3.  Random
line arrangements with the seeds' directions, which `arrangement_dimer`
accepts only when `validate` does, must pass every later stage too; on
those and on arrangements of random primitive directions it must agree
with the earlier rotation-ring builder kept in `test_dimer`.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cover, unimodular_image
from test_dimer import all_pairs_overlap, arrangement_by_rotation_rings
from test_kasteleyn import newton_matches_zigzags
from tropdimer import catalog
from tropdimer.arrangement import TorusLine, arrangement_dimer
from tropdimer.dimer import build_graph, dimer_to_tropical_fan, faces, validate, zigzag_paths
from tropdimer.io import canonicalize, parse_dimer, serialize_dimer
from tropdimer.kasteleyn import kasteleyn_matrix
from tropdimer.lattice import Vec2
from tropdimer.mutation import exact_assignment, mutate_face, mutation_directions
from tropdimer.render import LAYERS, render_dimer


def _subjects():
    out = {name: catalog.build(name) for name in catalog.NAMES}
    for name in catalog.NAMES:
        d = out[name]
        if not validate(d).self_intersecting:
            for k, face in enumerate(faces(d)):
                out[f"{name}/face{k}"] = mutate_face(d, face, exact_assignment(d)).dimer
    return out


SUBJECTS = _subjects()

COVERS = {
    f"{name}@{kx}x{ky}": cover(catalog.build(name), kx, ky)
    for name in catalog.NAMES
    for kx in (1, 2, 3)
    for ky in (1, 2, 3)
    if kx * ky > 1
}


def test_subjects_include_every_face_mutation():
    assert len(SUBJECTS) == len(catalog.NAMES) + 25


@pytest.mark.parametrize("label", sorted(SUBJECTS))
@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_unimodular_image_passes_every_stage(label, seed):
    d = unimodular_image(SUBJECTS[label], random.Random(seed))
    assert validate(d).ok  # validity survives a unimodular change of coordinates
    assert validate(d).self_intersecting == all_pairs_overlap(d)
    build_graph(d)
    paths = zigzag_paths(d)
    dimer_to_tropical_fan(d)
    kasteleyn_matrix(d)
    render_dimer(d, show=LAYERS)
    assert sum(p.cls.a for p in paths) == 0
    assert sum(p.cls.b for p in paths) == 0
    assert parse_dimer(serialize_dimer(d))[0] == canonicalize(d)


@pytest.mark.parametrize("label", sorted(SUBJECTS) + sorted(COVERS))
def test_overlap_verdict_matches_all_pairs_brute_force(label):
    d = SUBJECTS.get(label) or COVERS[label]
    for image in (d, unimodular_image(d, random.Random(label))):
        assert validate(image).self_intersecting == all_pairs_overlap(image)


@st.composite
def arrangements(draw):
    """The line directions of one seed, with offsets k / den."""
    seed = draw(st.sampled_from(sorted(catalog.SEED_LINES)))
    directions = [d for d, _ in catalog.SEED_LINES[seed]]
    den = draw(st.sampled_from([7, 11, 13, 17, 19]))
    n = len(directions)
    offsets = draw(st.lists(st.integers(0, den - 1), min_size=n, max_size=n))
    return [TorusLine(Vec2(*d), Fraction(k, den)) for d, k in zip(directions, offsets)]


@settings(max_examples=60, deadline=None)
@given(arrangements())
def test_every_stage_succeeds_on_an_accepted_line_arrangement(lines):
    try:
        d = arrangement_dimer(lines)  # refuses triple points and invalid regions
    except ValueError:
        assume(False)
    assert validate(d).ok
    classes = sorted((p.cls.a, p.cls.b) for p in zigzag_paths(d))
    assert classes == sorted((int(line.direction.x), int(line.direction.y)) for line in lines)
    graph = build_graph(d)
    assert len(graph.whites) + len(graph.blacks) - len(graph.edges) + len(faces(d)) == 0
    assert newton_matches_zigzags(d)
    mutation_directions(d)
    render_dimer(d, ("edges", "zigzags"))


@st.composite
def random_arrangements(draw):
    """Two to six lines with primitive directions of coordinates in [-3, 3]
    and offsets k / den, den <= 26."""
    coord = st.integers(-3, 3)
    direction = st.tuples(coord, coord).filter(lambda d: math.gcd(*d) == 1)
    directions = draw(st.lists(direction, min_size=2, max_size=6))
    den = draw(st.integers(1, 26))
    return [TorusLine(Vec2(*d), Fraction(draw(st.integers(0, den - 1)), den)) for d in directions]


@settings(max_examples=100, deadline=None)
@given(st.one_of(arrangements(), random_arrangements()))
def test_arrangement_matches_the_rotation_ring_oracle(lines):
    # the same dimer, lifts and polytope order included, or the same refusal
    try:
        expected = arrangement_by_rotation_rings(lines)
    except ValueError as refusal:
        with pytest.raises(ValueError) as got:
            arrangement_dimer(lines)
        assert str(got.value) == str(refusal)
        return
    assert arrangement_dimer(lines) == expected
