"""The JSON document of a dimer.

The schema is bit-exact:

    {"schema": "tropdimer/1",
     "denominator": N,
     "polytopes": [{"color": "white"|"black", "vertices": [[px, py], ...]}, ...],
     "weights": {"w<i>-b<j>@<ax>,<ay>": [num, den], ...}}

Vertex entries are integer numerators over N; edge ids use anchor
numerators.  Serialization canonicalizes: rationals reduced, every polygon
translated so its least vertex lies in the fundamental domain and rotated
to start there, polytopes stably ordered with white before black (the
stored within-color order is meaningful: it fixes the Kasteleyn row and
column order, hence the determinant's sign).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dimer import BLACK, WHITE, DualDimer, Polytope, fundamental_lift

SCHEMA = "tropdimer/1"


class SchemaError(ValueError):
    """The document is well-formed JSON but violates the schema."""


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _json(text: str):
    """``json.loads``, with a document the decoder cannot hold refused as a
    SchemaError: one nested past the recursion limit, or with an integer
    longer than Python converts.  Malformed JSON stays a JSONDecodeError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise SchemaError("document is nested too deeply") from None
    except ValueError as exc:
        raise SchemaError(f"unreadable JSON: {exc}") from None


def parse_dimer(text: str):
    """Parse a dimer document; returns (DualDimer, weights dict).

    This checks the document's shape; `DualDimer` and `Polytope` check the
    denominator and the polygons, and their refusals become SchemaErrors.
    Raises json.JSONDecodeError for malformed JSON and SchemaError for
    schema violations and documents `_json` refuses; axiom failures are
    the caller's concern.
    """
    doc = _json(text)
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")

    def polytopes():  # read only after DualDimer has checked the denominator
        polys = doc.get("polytopes")
        _require(isinstance(polys, list), "polytopes must be a nonempty list")
        _require(all(isinstance(entry, dict) for entry in polys), "polytope must be an object")
        for entry in polys:
            yield Polytope(entry.get("color"), entry.get("vertices"))

    try:
        dimer = DualDimer(doc.get("denominator"), polytopes())
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    weights = {}
    raw_weights = doc.get("weights", {})
    _require(isinstance(raw_weights, dict), "weights must be an object")
    for key, value in raw_weights.items():
        _require(
            isinstance(value, list)
            and len(value) == 2
            and all(type(c) is int for c in value)
            and value[1] > 0,
            "weight must be [numerator, positive denominator]",
        )
        weights[key] = Fraction(value[0], value[1])
    return dimer, weights


def _canonical_polytopes(dimer: DualDimer):
    """(color, vertex numerators) per polytope, whites first, each polygon
    moved by multiples of N so its least vertex lies in [0, N)^2 and
    rotated to start there."""
    n = dimer.denominator
    out = []
    for color in (WHITE, BLACK):
        for p in dimer.polytopes:
            if p.color == color:
                points = p.vertices
                k = points.index(min(points))
                out.append((color, fundamental_lift(points[k:] + points[:k], n)))
    return out


def canonicalize(dimer: DualDimer) -> DualDimer:
    polytopes = tuple(Polytope(color, points) for color, points in _canonical_polytopes(dimer))
    return DualDimer(dimer.denominator, polytopes)


def serialize_dimer(dimer: DualDimer) -> str:
    doc = {
        "schema": SCHEMA,
        "denominator": dimer.denominator,
        "polytopes": [
            {"color": color, "vertices": [list(v) for v in points]}
            for color, points in _canonical_polytopes(dimer)
        ],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"

