"""Every valid input through every command, in process.

The inputs are built from the catalog: each entry's small covers, every
face mutation that `mutate_face` accepts on the embedded entries' covers up
to 2x2, and a seeded unimodular image of each cover.  Every run must exit
0, or exit 1 with the message of one row of ``ROWS`` on an input that row
names.  An exception that escapes `cli.run`, any other exit, and a row that
no input reaches any more each fail the sweep.  A change that lifts a
refusal deletes its row.
"""

import contextlib
import io
import json
import random
import traceback

import pytest

from conftest import EMBEDDED, cover, unimodular_image
from tropdimer import catalog
from tropdimer.cli import run
from tropdimer.dimer import faces, validate, zigzag_paths
from tropdimer.io import serialize_dimer
from tropdimer.mutation import exact_assignment, mutate_face

COVERS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))
MUTATED_COVERS = ((1, 1), (1, 2), (2, 1), (2, 2))
MATCHINGS_LIMIT = 40  # polygons: `matchings --json` lists every perfect matching

CP2_RAYS = len(catalog.DEL_PEZZO_FANS["cp2"])

COMMANDS = (
    ("validate",),
    ("graph",),
    ("zigzags",),
    ("fan",),
    ("euler",),
    ("directions",),
    ("kasteleyn",),
    ("mutate", "--face", "0"),
    ("compare-seed", "cp2"),
    ("render", "--show", "edges,zigzags"),
)
MATCHINGS = (("matchings",), ("matchings", "--json"))


class Input:
    """A document on disk, with what the rows ask of it: whether it is
    immersed, how many sheets its cover has, and its number of zigzags."""

    def __init__(self, label, path, dimer, sheets):
        self.label, self.path, self.sheets = label, str(path), sheets
        self.immersed = validate(dimer).self_intersecting
        self.zigzags = len(zigzag_paths(dimer))
        self.polygons = len(dimer.polytopes)


# (commands, the inputs the row covers, message, what keeps the refusal)
ROWS = (
    (("euler", "mutate"), lambda i: i.immersed, "faces undefined for immersed dimer",
     "golden corpus: euler and mutate on pants-min and immersed-hexagon"),
    (("directions", "compare-seed"), lambda i: i.immersed, "zigzag surface is not a torus",
     "golden corpus: directions and compare-seed on pants-min and immersed-hexagon"),
    (("directions", "compare-seed"), lambda i: not i.immersed and i.sheets > 1,
     "zigzag surface is not a torus",
     "ROADMAP direction 3: the face classes of a proper cover's genus-g surface"),
    (("compare-seed",), lambda i: i.zigzags != CP2_RAYS, "multisets must have equal size",
     "golden corpus: compare-seed against a fan with another number of rays"),
)


def _inputs(directory):
    rng = random.Random(11)
    out = []

    def add(label, dimer, sheets):
        path = directory / f"{len(out)}.json"
        path.write_text(serialize_dimer(dimer))
        out.append(Input(label, path, dimer, sheets))

    for name in catalog.NAMES:
        for kx, ky in COVERS:
            dimer = cover(catalog.build(name), kx, ky)
            add(f"{name}@{kx}x{ky}", dimer, kx * ky)
            add(f"{name}@{kx}x{ky} image", unimodular_image(dimer, rng), kx * ky)
    for name in EMBEDDED:
        for kx, ky in MUTATED_COVERS:
            dimer = cover(catalog.build(name), kx, ky)
            weights = exact_assignment(dimer)
            for k, face in enumerate(faces(dimer)):
                try:
                    result = mutate_face(dimer, face, weights)
                except ValueError:
                    continue
                add(f"{name}@{kx}x{ky} face {k}", result.dimer, kx * ky)
    return out


def _call(argv):
    """(exit code, stdout, stderr) of `cli.run`, or None and the traceback."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    except Exception:
        return None, "", traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The inputs, and {(input, command): (exit code, stdout, stderr)}."""
    inputs = _inputs(tmp_path_factory.mktemp("sweep"))
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("TROPDIMER_COLOR", raising=False)
        for inp in inputs:
            commands = COMMANDS + (MATCHINGS if inp.polygons <= MATCHINGS_LIMIT else ())
            for command in commands:
                runs[inp, command] = _call((command[0], inp.path) + command[1:])
    return inputs, runs


def _row(inp, command, code, err):
    """The index of the row that names this refusal, or None."""
    for k, (names, covers, message, _) in enumerate(ROWS):
        if code == 1 and command[0] in names and covers(inp) and err == f"error: {message}\n":
            return k
    return None


def test_every_input_runs_every_command(sweep):
    inputs, runs = sweep
    assert len(inputs) == 321
    assert sum(inp.immersed for inp in inputs) == 249
    failures = [
        f"{inp.label}: {' '.join(command)} -> {code}\n{err}"
        for (inp, command), (code, _, err) in runs.items()
        if code != 0 and _row(inp, command, code, err) is None
    ]
    assert not failures, "\n".join(failures[:10])


def test_every_row_is_reached(sweep):
    _, runs = sweep
    reached = {_row(inp, command, code, err) for (inp, command), (code, _, err) in runs.items()}
    stale = [row[::2] for k, row in enumerate(ROWS) if k not in reached]
    assert not stale


def _coefficient_sum(line):
    """Σ|c| of a `format_laurent` line."""
    total = 0
    for term in line.split():
        if term in ("+", "-"):
            continue
        head = term.lstrip("-").split("*")[0]
        total += int(head) if head.isdigit() else 1
    return total


def test_embedded_outputs_meet_their_oracles(sweep):
    """Σ|c| of the partition function counts the perfect matchings, and the
    Euler characteristic of the torus is 0."""
    inputs, runs = sweep
    embedded = [inp for inp in inputs if not inp.immersed]
    counted = 0
    for inp in embedded:
        code, out, _ = runs[inp, ("euler",)]
        assert (code, out) == (0, "0\n"), inp.label
        listed = runs.get((inp, ("matchings", "--json")))
        if listed is None:
            continue
        (code, out, _), (k_code, k_out, _) = listed, runs[inp, ("kasteleyn",)]
        assert code == k_code == 0, inp.label
        assert _coefficient_sum(k_out) == len(json.loads(out)), inp.label
        counted += 1
    assert counted
