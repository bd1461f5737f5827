"""Checks on the benchmark's inputs and its span reduction.

    python -m pytest perfbench

Every rung of both ladders must be a valid dimer, embedded unless it is one
of the immersed catalog entries, and the seeded lifts must leave every
lift-invariant output unchanged, so that the recorded reference applies to
every lifted input.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

import calibrate
import ladder

ladder.use_source_tree()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tropdimer import catalog, cli, dimer, io as tio  # noqa: E402

RUNGS = {r.name: r for r in ladder.COVER_LADDER + ladder.PARTITION_LADDER}
REFERENCE = json.loads((ladder.ROOT / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(RUNGS))
def test_rung_validates_and_is_embedded(name):
    rung = RUNGS[name]
    d, _ = tio.parse_dimer(ladder.dump(rung.doc(catalog.catalog_text)))
    report = dimer.validate(d)
    assert report.ok
    assert report.self_intersecting == (name in ladder.IMMERSED)


def test_cover_scales_polytope_count_and_denominator():
    base = ladder.load_doc(catalog.catalog_text("honeycomb"))
    doc = ladder.cover(base, 2, 3)
    assert doc["denominator"] == base["denominator"] * 6
    assert len(doc["polytopes"]) == 6 * len(base["polytopes"])


def test_same_seed_gives_same_lifts():
    doc = ladder.load_doc(catalog.catalog_text("bl3-seed"))
    assert ladder.lift(doc, random.Random(5)) == ladder.lift(doc, random.Random(5))
    assert ladder.lift(doc, random.Random(5)) != ladder.lift(doc, random.Random(6))


def _cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lifts_leave_cli_outputs_unchanged(seed, tmp_path):
    rng = random.Random(seed)
    for pool in workloads.cli_variants().values():
        for choice in pool:
            if choice.entry is None:
                continue
            doc = ladder.load_doc(catalog.catalog_text(choice.entry))
            runs = []
            for k, text in enumerate((ladder.dump(doc), ladder.dump(ladder.lift(doc, rng)))):
                path = tmp_path / f"{k}.json"
                path.write_text(text)
                argv = [str(path) if a == "{input}" else a.replace("{gauge}", str(seed))
                        for a in choice.argv]
                runs.append(_cli(argv))
            (code, out, err), (lcode, lout, lerr) = runs
            assert (lcode, lerr) == (code, err), choice.key
            if choice.check == "render":
                assert workloads.render_shape(lout) == workloads.render_shape(out), choice.key
            else:
                assert lout == out, choice.key


@pytest.mark.parametrize("name", [r.name for r in ladder.COVER_LADDER])
def test_lifted_analysis_matches_reference(name):
    doc = RUNGS[name].doc(catalog.catalog_text)
    text = ladder.dump(ladder.lift(doc, random.Random(name)))
    _, outputs = workloads.analyse(tracing.Tracer(), text)
    assert workloads.fingerprints(outputs) == REFERENCE["pipeline"][name]


def test_self_time_excludes_child_spans():
    spans = [["op", 0.0, 1.0, None, 0], ["dimer.validate", 0.25, 0.75, 0, 0]]
    assert tracing.self_times(spans, lambda start, end: end - start) == {
        "op": (0.5, 1), "dimer.validate": (0.5, 1)}


def test_scale_leaves_out_probes_and_averages_their_ends():
    speed = calibrate.Speed()
    speed.starts, speed.ends, speed.factors = [0.0, 2.0, 4.0], [0.5, 2.5, 4.5], [1.0, 0.5, 1.0]
    assert speed.scale(1.0, 3.5) == (2.0, 1.5)
