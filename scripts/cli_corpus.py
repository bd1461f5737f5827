#!/usr/bin/env python3
"""Golden digests of the dimer subcommands' output.

Runs ``tropdimer.cli.run`` in-process for every dimer subcommand on every
catalog entry, for ``validate``, ``kasteleyn``, ``matchings``, ``mutate``
and ``render`` on a few torus covers of them (larger matrices, faces and
pictures, and exponents over larger denominators), for ``validate`` and
``kasteleyn`` on larger covers (n = 15 .. 27), and for ``validate`` alone
on covers of the immersed entries, once on the canonical document and once
on a fixed integer lift of each polytope, and for the commands that read
no dimer (``atf``, ``genus``, ``catalog``), and records the sha256 of exit
code, stdout and stderr per command line into ``tests/golden_cli.json``.
The check is ``python -m pytest tests/test_golden_cli.py``, which compares
the current digests against that file.

    PYTHONPATH=src python3 scripts/cli_corpus.py    # rewrite the file
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from tropdimer import catalog
from tropdimer.cli import run

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden_cli.json"

FORMS = ("canonical", "lifted")

GAUGES = ("paper", "trivial", "random:7")

# ``<name>@<kx>x<ky>`` is the kx-by-ky cover of a catalog entry: n = 8 .. 12
# at 2x2, and the rational exponents of bl1-seed and bl2-seed at 1x2.
COVERS = ("honeycomb@2x2", "cp2-seed@2x2", "p1p1-seed@2x2", "bl1-seed@1x2", "bl2-seed@1x2")

# Larger covers, n = 15 .. 27, with too many perfect matchings to list:
# only `validate` and `kasteleyn`, in two gauges.
LARGE_COVERS = ("bl3-seed@1x5", "honeycomb@2x3", "honeycomb@1x6", "honeycomb@3x3")

LARGE_GAUGES = ("paper", "random:7")

# Covers of the immersed entries: only `validate`, which reports them
# immersed ("ok (immersed)", `"immersed": true`).
IMMERSED_COVERS = ("pants-min@2x2", "immersed-hexagon@2x2")


def commands():
    """Subcommand argument lists, ``{input}`` standing for the document."""
    out = []
    for name in ("validate", "graph", "zigzags", "fan", "matchings", "euler", "directions"):
        out.append([name, "{input}"])
        out.append([name, "{input}", "--json"])
    out.extend(kasteleyn_commands())
    for fan in sorted(catalog.DEL_PEZZO_FANS):
        out.append(["compare-seed", "{input}", fan])
    for face in range(6):  # past the last face the refusal is pinned too
        out.append(["mutate", "{input}", "--face", str(face)])
    out.append(["render", "{input}", "--show", "edges,zigzags"])
    return out


def standalone_commands():
    """The argument lists of the commands that read no dimer: every `atf`
    operation on every surface (with the base-diagram SVG of `atf trade
    --render`), `genus` and `catalog`."""
    out = []
    for surface in sorted(catalog.MOMENT_POLYGONS):
        out.append(["atf", "trade", surface])
        out.append(["atf", "trade", surface, "--render"])
        out.append(["atf", "trade", surface, "--corner", "1", "--render"])
        out.append(["atf", "inner", surface])
        out.append(["atf", "outer", surface])
        out.append(["atf", "outer", surface, "--depth", "1/3"])
        out.append(["atf", "exchange", surface])
    out.append(["atf", "exchange", "local"])
    out.extend(["atf", "an", str(n)] for n in (1, 2, 3))
    out.extend(["genus", str(d)] for d in (1, 2, 3, 4))
    out.append(["catalog"])
    out.extend(["catalog", name] for name in catalog.NAMES)
    return out


def kasteleyn_commands(gauges=GAUGES):
    """The `kasteleyn` argument lists, one per gauge."""
    return [["kasteleyn", "{input}", "--gauge", gauge] for gauge in gauges]


def validate_commands():
    """The `validate` argument lists, plain and `--json`."""
    return [["validate", "{input}"], ["validate", "{input}", "--json"]]


def cover_commands():
    """The argument lists run on the covers: `validate`, `kasteleyn` in
    every gauge, `matchings`, plain and `--json`, `mutate` at face 0 and
    `render` with both overlays."""
    matchings = [["matchings", "{input}"], ["matchings", "{input}", "--json"]]
    drawn = [["mutate", "{input}", "--face", "0"], ["render", "{input}", "--show", "edges,zigzags"]]
    return validate_commands() + kasteleyn_commands() + matchings + drawn


def large_cover_commands():
    """The argument lists run on the larger covers: `validate`, plain and
    `--json`, and `kasteleyn` in two gauges."""
    return validate_commands() + kasteleyn_commands(LARGE_GAUGES)


def entry_commands(entry: str):
    """The argument lists run on a catalog entry or cover."""
    if entry in COVERS:
        return cover_commands()
    if entry in LARGE_COVERS:
        return large_cover_commands()
    if entry in IMMERSED_COVERS:
        return validate_commands()
    return commands()


def document(entry: str) -> dict:
    """The document of a catalog entry, or of ``<name>@<kx>x<ky>``: copy
    (i, j) of a vertex with numerators (x, y) over N becomes
    ((x + N i) ky, (y + N j) kx) over N kx ky."""
    name, _, size = entry.partition("@")
    doc = json.loads(catalog.catalog_text(name))
    if size:
        kx, ky = (int(k) for k in size.split("x"))
        n = doc["denominator"]
        doc["denominator"] = n * kx * ky
        doc["polytopes"] = [
            {
                "color": poly["color"],
                "vertices": [[(x + n * i) * ky, (y + n * j) * kx] for x, y in poly["vertices"]],
            }
            for i in range(kx)
            for j in range(ky)
            for poly in doc["polytopes"]
        ]
    return doc


def lifted_text(entry: str) -> str:
    """The document with polytope k moved by a fixed integer vector."""
    doc = document(entry)
    den = doc["denominator"]
    for k, poly in enumerate(doc["polytopes"]):
        dx, dy = den * (k % 3 - 1), den * ((k // 3) % 3 - 1)
        poly["vertices"] = [[x + dx, y + dy] for x, y in poly["vertices"]]
    return json.dumps(doc)


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@contextlib.contextmanager
def _uncolored():
    """Run with TROPDIMER_COLOR unset, so the digests do not depend on it."""
    saved = os.environ.pop("TROPDIMER_COLOR", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["TROPDIMER_COLOR"] = saved


def corpus(names=catalog.NAMES + COVERS + LARGE_COVERS + IMMERSED_COVERS) -> dict:
    """``{"<form>:<entry> <arguments>": sha256}`` for the given entries,
    catalog names or covers."""
    digests = {}
    with _uncolored():
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                lifted = pathlib.Path(tmp) / f"{name}-lifted.json"
                lifted.write_text(lifted_text(name))
                sources = {"canonical": f"catalog:{name}", "lifted": str(lifted)}
                if "@" in name:
                    canonical = pathlib.Path(tmp) / f"{name}.json"
                    canonical.write_text(json.dumps(document(name)))
                    sources["canonical"] = str(canonical)
                for form in FORMS:
                    for argv in entry_commands(name):
                        key = " ".join([f"{form}:{name}"] + argv[:1] + argv[2:])
                        digests[key] = _digest([a.replace("{input}", sources[form]) for a in argv])
    return digests


def standalone_corpus() -> dict:
    """``{"none:<arguments>": sha256}`` for the commands that read no dimer."""
    with _uncolored():
        return {"none:" + " ".join(argv): _digest(argv) for argv in standalone_commands()}


def main():
    digests = {**corpus(), **standalone_corpus()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
