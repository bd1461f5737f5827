import random

import pytest
from hypothesis import settings

settings.register_profile("fast", max_examples=25, deadline=None)
settings.load_profile("fast")

from tropdimer import catalog
from tropdimer.dimer import DualDimer, Polytope, validate
from tropdimer.lattice import UnimodularMap


# the catalog entries with embedded faces: all but the immersed ones
EMBEDDED = tuple(name for name in catalog.NAMES if not validate(catalog.build(name)).self_intersecting)


def unimodular_image(dimer: DualDimer, rng: random.Random) -> DualDimer:
    """A random SL(2,Z) image of the dimer, plus an integer translation:
    numerators v over N go to A v + N t."""
    # Build the map from elementary shears so the determinant is +1 exactly.
    # small shears keep coordinates bounded, which keeps the exact torus
    # intersection tests cheap; the maps are still a decent spread of SL(2,Z)
    m = UnimodularMap.identity()
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(-1, 1)
        shear = UnimodularMap(1, k, 0, 1) if rng.random() < 0.5 else UnimodularMap(1, 0, k, 1)
        m = m.compose(shear)
    n = dimer.denominator
    tx, ty = n * rng.randint(-1, 1), n * rng.randint(-1, 1)
    polytopes = tuple(
        Polytope(
            p.color, [(m.a * x + m.b * y + tx, m.c * x + m.d * y + ty) for x, y in p.vertices]
        )
        for p in dimer.polytopes
    )
    return DualDimer(n, polytopes)


def cover(dimer: DualDimer, kx: int, ky: int) -> DualDimer:
    """The kx-by-ky torus cover rescaled to the unit torus, the map of the
    benchmark ladder: copy (i, j) of numerators (x, y) over N becomes
    ((x + N i) ky, (y + N j) kx) over N kx ky, copies in (i, j) order."""
    n = dimer.denominator
    polytopes = tuple(
        Polytope(p.color, [((x + n * i) * ky, (y + n * j) * kx) for x, y in p.vertices])
        for i in range(kx)
        for j in range(ky)
        for p in dimer.polytopes
    )
    return DualDimer(n * kx * ky, polytopes)


@pytest.fixture
def honeycomb():
    return catalog.build("honeycomb")


@pytest.fixture
def pants_min():
    return catalog.build("pants-min")
