"""Every stage succeeds on every valid dimer the toolkit makes.

The subjects are the catalog entries and the results of mutating each face
of the embedded ones; each is checked on random unimodular images.  The
overlap verdict of `validate` is also checked against the all-pairs brute
force on them and on the torus covers of the catalog up to 3x3.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cover, unimodular_image
from test_dimer import all_pairs_overlap
from tropdimer import catalog
from tropdimer.dimer import build_graph, dimer_to_tropical_fan, faces, validate, zigzag_paths
from tropdimer.io import canonicalize, parse_dimer, serialize_dimer
from tropdimer.kasteleyn import kasteleyn_matrix
from tropdimer.mutation import exact_assignment, mutate_face
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
