"""Benchmark inputs: torus covers of catalog dimers, with seeded lifts.

Everything here works on dimer JSON documents whose vertex entries are
integer numerators over the document's denominator N, so no part of the
package is needed to build an input.

A kx-by-ky cover tiles the base dimer over the torus R^2 / (kx Z x ky Z)
and rescales it back to the unit torus: copy (i, j) of a vertex with
numerators (x, y) becomes ((x + N i) ky, (y + N j) kx) over N kx ky.  Covers
are the natural size ladder for dimers (Kenyon-Okounkov-Sheffield, "Dimers
and amoebae", Ann. Math. 2006).

A lift moves each polytope by its own integer vector in {-1, 0, 1}^2.  The
dimer on the torus is unchanged, but the document differs, so the input-keyed
caches of the package never see the same input twice.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

SCHEMA = "tropdimer/1"

# The checkout the benchmark runs in: perfbench/ sits beside src/.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree():
    """Import the package from the checkout's src/; raise if it is missing."""
    if not (SRC / "tropdimer" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC / 'tropdimer'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_doc(text: str) -> dict:
    """The document of a catalog entry, checked to hold integer numerators only."""
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA or doc.get("weights"):
        raise ValueError("expected an unweighted tropdimer/1 document")
    for poly in doc["polytopes"]:
        for pair in poly["vertices"]:
            if not all(type(c) is int for c in pair):
                raise ValueError("vertex numerators must be integers")
    return doc


def cover(doc: dict, kx: int, ky: int) -> dict:
    """The kx-by-ky cover, copy by copy in (i, j) order, base order within a copy."""
    n = doc["denominator"]
    polytopes = [
        {
            "color": poly["color"],
            "vertices": [[(x + n * i) * ky, (y + n * j) * kx] for x, y in poly["vertices"]],
        }
        for i in range(kx)
        for j in range(ky)
        for poly in doc["polytopes"]
    ]
    return {"schema": SCHEMA, "denominator": n * kx * ky, "polytopes": polytopes}


def lift(doc: dict, rng: random.Random) -> dict:
    """Move every polytope by its own integer vector drawn from {-1, 0, 1}^2."""
    den = doc["denominator"]
    polytopes = []
    for poly in doc["polytopes"]:
        dx, dy = den * rng.randint(-1, 1), den * rng.randint(-1, 1)
        polytopes.append(
            {"color": poly["color"], "vertices": [[x + dx, y + dy] for x, y in poly["vertices"]]}
        )
    return {"schema": SCHEMA, "denominator": den, "polytopes": polytopes}


def dump(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


class Rung:
    """One input of a ladder: a catalog entry, or its kx-by-ky cover."""

    def __init__(self, base: str, kx: int = 0, ky: int = 0):
        self.base, self.kx, self.ky = base, kx, ky
        self.name = f"{base}@{kx}x{ky}" if kx else base

    def doc(self, catalog_text) -> dict:
        """The canonical (unlifted) document; ``catalog_text`` maps a name to JSON text."""
        base = load_doc(catalog_text(self.base))
        return cover(base, self.kx, self.ky) if self.kx else base


CATALOG = (
    "honeycomb",
    "pants-min",
    "cp2-seed",
    "p1p1-seed",
    "bl1-seed",
    "bl2-seed",
    "bl3-seed",
    "immersed-hexagon",
)
# The catalog entries whose polygons overlap on the torus; every other rung
# is embedded.
IMMERSED = ("pants-min", "immersed-hexagon")
SEEDS = ("cp2-seed", "p1p1-seed", "bl1-seed", "bl2-seed", "bl3-seed")

# Each ladder has an odd number of rungs, so that the median operation of a
# run of whole rounds is the middle sample of one rung, not the mean of the
# fastest and slowest samples of two rungs far apart in cost.

# cover-analysis: the catalog, honeycomb k x k for k = 2, 3 (k = 1 is the
# catalog entry itself), the seeds at k = 2.
COVER_LADDER = (
    tuple(Rung(name) for name in CATALOG)
    + tuple(Rung("honeycomb", k, k) for k in (2, 3))
    + tuple(Rung(name, 2, 2) for name in SEEDS)
)

# partition: rectangular covers whose Kasteleyn matrix has n = 8 .. 18.
PARTITION_LADDER = (
    Rung("p1p1-seed", 2, 2),
    Rung("cp2-seed", 2, 2),
    Rung("honeycomb", 2, 2),
    Rung("bl2-seed", 1, 4),
    Rung("bl3-seed", 1, 5),
    Rung("honeycomb", 2, 3),
    Rung("honeycomb", 1, 6),
)
