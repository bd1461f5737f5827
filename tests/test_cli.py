import json
import random
import time

import pytest

from conftest import EMBEDDED, cover
from tropdimer import catalog
from tropdimer.cli import run
from tropdimer.io import serialize_dimer


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kasteleyn_honeycomb_exact_output(capsys):
    code, out, _ = invoke(capsys, "kasteleyn", "catalog:honeycomb", "--gauge", "paper")
    assert code == 0
    assert out == "3 - z1 - z2 - z1^-1*z2^-1\n"


def test_gauge_variants_accepted(capsys):
    for gauge in ("trivial", "random:7"):
        code, out, _ = invoke(capsys, "kasteleyn", "catalog:honeycomb", "--gauge", gauge)
        assert code == 0 and out.strip()


def test_unknown_gauge_is_usage_error(capsys):
    for gauge in ("bogus", "random:abc"):
        code, out, err = invoke(capsys, "kasteleyn", "catalog:honeycomb", "--gauge", gauge)
        assert code == 2 and not out
        assert "unknown gauge" in err


def test_clockwise_polygon_is_refused_at_parse_time(tmp_path, capsys):
    doc = json.loads(catalog.catalog_text("pants-min"))
    doc["polytopes"][0]["vertices"].reverse()
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "zigzags", "fan"):
        code, out, err = invoke(capsys, command, str(path))
        assert code == 2 and not out
        assert "strictly convex and counterclockwise" in err


@pytest.mark.parametrize("name", catalog.NAMES)
def test_render_overlay_ignores_stored_lifts(name, tmp_path, capsys):
    doc = json.loads(catalog.catalog_text(name))
    den = doc["denominator"]
    for k, poly in enumerate(doc["polytopes"]):
        dx, dy = den * (k % 3 - 1), den * (k % 2)
        poly["vertices"] = [[x + dx, y + dy] for x, y in poly["vertices"]]
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(doc))
    code, canonical, _ = invoke(capsys, "render", f"catalog:{name}", "--show", "edges,zigzags")
    assert code == 0
    code, lifted, _ = invoke(capsys, "render", str(path), "--show", "edges,zigzags")
    assert code == 0
    assert lifted == canonical


def test_validate_catalog_entries(capsys):
    code, out, _ = invoke(capsys, "validate", "catalog:honeycomb")
    assert code == 0 and out.startswith("ok")
    code, out, _ = invoke(capsys, "validate", "catalog:pants-min", "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "immersed": True}


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_unreadable_paths_are_usage_errors(tmp_path, capsys):
    """A path through a file is refused like a missing one: exit 2, no traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = str(blocker / "x")
    for argv in (["validate", bad], ["render", "catalog:honeycomb", "--out", bad]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and "Not a directory" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{\n  "schema": ,\n}')
    code, _, err = invoke(capsys, "validate", str(doc))
    assert code == 2
    assert "line 2" in err and "column" in err
    # documents the decoder cannot hold: past its recursion limit, or with an
    # integer longer than Python converts; refused as schema errors
    for text, message in [
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ('{"schema": "tropdimer/1", "denominator": ' + "9" * 5000 + "}", "digits"),
    ]:
        doc.write_text(text)
        code, out, err = invoke(capsys, "validate", str(doc))
        assert code == 2 and not out
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_schema_violation_is_usage_error(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"schema": "tropdimer/9"}')
    code, _, err = invoke(capsys, "validate", str(doc))
    assert code == 2 and "error:" in err


def test_invalid_dimer_is_domain_failure(tmp_path, capsys):
    doc = tmp_path / "lonely.json"
    doc.write_text(
        json.dumps(
            {
                "schema": "tropdimer/1",
                "denominator": 1,
                "polytopes": [
                    {"color": "white", "vertices": [[0, 0], [1, 0], [0, 1]]},
                    {"color": "black", "vertices": [[0, 0], [1, 0], [1, 1]]},
                ],
                "weights": {},
            }
        )
    )
    code, out, _ = invoke(capsys, "validate", str(doc))
    assert code == 1
    assert "FAIL" in out


def test_validate_report_names_unmatched_torus_points(tmp_path, capsys):
    doc = tmp_path / "mismatched.json"
    doc.write_text(
        json.dumps(
            {
                "schema": "tropdimer/1",
                "denominator": 2,
                "polytopes": [
                    {"color": "white", "vertices": [[0, 0], [1, 0], [0, 1]]},
                    {"color": "black", "vertices": [[0, 0], [1, 1], [0, 1]]},
                ],
            }
        )
    )
    code, out, _ = invoke(capsys, "validate", str(doc))
    assert code == 1
    assert out.splitlines() == [
        "distinct vertices per color: pass",
        "white/black vertex sets match mod Z^2: FAIL offenders=[T(1/2, 0), T(1/2, 1/2)]",
        "opposite edge germs at matched vertices: FAIL",
        "self-intersections: present",
    ]


def test_validate_names_germs_that_are_not_opposite(tmp_path, capsys):
    doc = tmp_path / "germs.json"
    doc.write_text(
        json.dumps(
            {
                "schema": "tropdimer/1",
                "denominator": 2,
                "polytopes": [
                    {"color": "white", "vertices": [[-1, 0], [0, -1], [1, 1]]},
                    {"color": "black", "vertices": [[1, 0], [1, 1], [0, 1]]},
                ],
            }
        )
    )
    code, out, _ = invoke(capsys, "validate", str(doc))
    assert code == 1
    assert out.splitlines() == [
        "distinct vertices per color: pass",
        "white/black vertex sets match mod Z^2: pass",
        "opposite edge germs at matched vertices: FAIL"
        " offenders=[T(0, 1/2), T(1/2, 0), T(1/2, 1/2)]",
        "self-intersections: present",
    ]
    code, out, _ = invoke(capsys, "validate", str(doc), "--json")
    assert (code, out) == (1, '{"ok": false, "immersed": true}\n')


def test_mutate_writes_dimer_and_reports_immersion(tmp_path, capsys):
    out_path = tmp_path / "mut.json"
    code, out, _ = invoke(capsys, "mutate", "catalog:honeycomb", "--face", "0", "--out", str(out_path))
    assert code == 0
    assert out == "immersed: true\n"
    code, out, _ = invoke(capsys, "validate", str(out_path), "--json")
    assert code == 0 and json.loads(out)["immersed"]


def test_mutate_out_of_range_face(capsys):
    code, _, err = invoke(capsys, "mutate", "catalog:honeycomb", "--face", "9")
    assert code == 1 and "face not found" in err


@pytest.mark.parametrize(
    "weights, message",
    [
        ({"w0-b3@1,2": [1, 1]}, "no weight for edge w0-b4@0,0"),
        ({"w0-b3@0,0": [1, 1]}, "weight for unknown edge w0-b3@0,0"),
        ({"bogus": [0, 1]}, "weight for unknown edge bogus"),
    ],
    ids=["missing", "unknown-w0-b3@0,0", "unknown-bogus"],
)
def test_mutate_refuses_incomplete_weights(weights, message, tmp_path, capsys):
    doc = json.loads(catalog.catalog_text("honeycomb"))
    doc["weights"] = weights
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "mutate", str(path), "--face", "0")
    assert code == 1 and not out
    assert err == f"error: {message}\n"


def test_validate_refuses_unknown_weight(tmp_path, capsys):
    doc = json.loads(catalog.catalog_text("honeycomb"))
    doc["weights"] = {"bogus": [0, 1]}
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "validate", str(path))
    assert (code, out, err) == (1, "weight for unknown edge bogus\n", "")
    code, out, _ = invoke(capsys, "validate", str(path), "--json")
    assert code == 1 and json.loads(out) == {"ok": False, "immersed": False}


def test_fan_and_zigzags_and_euler(capsys):
    code, out, _ = invoke(capsys, "fan", "catalog:honeycomb", "--json")
    assert code == 0
    assert sorted(map(tuple, (tuple(r) for r, _ in json.loads(out)))) == [
        (-1, -1),
        (-1, 2),
        (2, -1),
    ]
    code, out, _ = invoke(capsys, "zigzags", "catalog:honeycomb", "--json")
    assert code == 0 and len(json.loads(out)) == 3
    code, out, _ = invoke(capsys, "euler", "catalog:cp2-seed")
    assert code == 0 and out.strip() == "0"


def test_matchings_count(capsys):
    code, out, _ = invoke(capsys, "matchings", "catalog:honeycomb")
    assert code == 0 and out.strip() == "6"


@pytest.mark.parametrize("size", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
@pytest.mark.parametrize("name", EMBEDDED)
def test_the_matchings_count_is_the_listing_length(name, size, tmp_path, capsys):
    """On an embedded dimer `matchings` prints the sum of the determinant's
    |coefficients|; `--json` still lists the matchings one by one."""
    path = tmp_path / "cover.json"
    path.write_text(serialize_dimer(cover(catalog.build(name), *size)))
    code, count, _ = invoke(capsys, "matchings", str(path))
    assert code == 0
    code, listing, _ = invoke(capsys, "matchings", str(path), "--json")
    assert code == 0
    assert int(count) == len(json.loads(listing)) > 0


def test_matchings_counts_honeycomb_three_by_three_without_listing(tmp_path, capsys):
    """15,162 matchings, which the listing takes seconds to walk."""
    path = tmp_path / "cover.json"
    path.write_text(serialize_dimer(cover(catalog.build("honeycomb"), 3, 3)))
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "matchings", str(path))
    assert time.perf_counter() - start < 0.1
    assert code == 0 and out == "15162\n"


def test_compare_seed(capsys):
    code, out, _ = invoke(capsys, "compare-seed", "catalog:cp2-seed", "cp2")
    assert code == 0 and out.startswith("[[")


def test_genus(capsys):
    code, out, _ = invoke(capsys, "genus", "5")
    assert code == 0 and out.strip() == "6"


def test_catalog_listing(capsys):
    code, out, _ = invoke(capsys, "catalog")
    assert code == 0
    names = out.split()
    assert "honeycomb" in names and "bl3-seed" in names


def test_render_polygon_and_zigzag_counts(tmp_path, capsys):
    svg = tmp_path / "h.svg"
    code, _, _ = invoke(capsys, "render", "catalog:honeycomb", "--out", str(svg))
    assert code == 0
    body = svg.read_text()
    assert body.count("<polygon") == 6
    code, _, _ = invoke(capsys, "render", "catalog:honeycomb", "--show", "zigzags", "--out", str(svg))
    assert code == 0
    assert svg.read_text().count('<g class="zigzag"') == 3


def test_render_refuses_coordinates_past_the_float_range(tmp_path, capsys):
    # the honeycomb sheared by (x, y) -> (x + 10^400 y, y): a valid dimer
    # whose screen coordinates no float can hold
    doc = json.loads(catalog.catalog_text("honeycomb"))
    for poly in doc["polytopes"]:
        poly["vertices"] = [[x + 10**400 * y, y] for x, y in poly["vertices"]]
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "validate", str(path))
    assert code == 0 and out.startswith("ok")
    for show in ((), ("--show", "edges,zigzags")):
        code, out, err = invoke(capsys, "render", str(path), *show)
        assert code == 1 and not out
        assert err == "error: coordinates too large to draw\n"


def test_unknown_render_layer_is_usage_error(capsys):
    for show in ("edge", "edges,zigzag"):
        code, out, err = invoke(capsys, "render", "catalog:honeycomb", "--show", show)
        assert code == 2 and not out
        assert "unknown layer" in err


def test_render_is_deterministic(capsys):
    code1, out1, _ = invoke(capsys, "render", "catalog:honeycomb", "--show", "edges,zigzags")
    code2, out2, _ = invoke(capsys, "render", "catalog:honeycomb", "--show", "edges,zigzags")
    assert code1 == code2 == 0
    assert out1 == out2


def test_color_env_toggles_ansi(capsys, monkeypatch):
    monkeypatch.setenv("TROPDIMER_COLOR", "1")
    _, out, _ = invoke(capsys, "validate", "catalog:honeycomb")
    assert "\x1b[32m" in out
    monkeypatch.setenv("TROPDIMER_COLOR", "0")
    _, out, _ = invoke(capsys, "validate", "catalog:honeycomb")
    assert "\x1b[" not in out


def test_unknown_catalog_name_is_usage_error(capsys):
    for argv in (["catalog", "nope"], ["validate", "catalog:nope"], ["kasteleyn", "catalog:nope"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and not out
        assert "'nope'" in err


def test_outer_depth_is_parsed_at_parse_time(capsys):
    for depth in ("1/0", "abc", ""):
        code, out, err = invoke(capsys, "atf", "outer", "cp2", "--depth", depth)
        assert code == 2 and not out
        assert f"invalid depth {depth!r}" in err
    code, out, _ = invoke(capsys, "atf", "outer", "cp2", "--depth", "1/3")
    assert code == 0 and out.startswith("outer torus:")
    code, _, err = invoke(capsys, "atf", "outer", "cp2", "--depth", "0")
    assert code == 1 and "out of range" in err


def test_atf_round_trip_via_cli(capsys):
    code, out, _ = invoke(capsys, "atf", "exchange", "cp2")
    assert code == 0
    assert "admissible: true" in out


def test_fuzzed_input_never_crashes(tmp_path, capsys):
    rng = random.Random(20240817)
    doc = tmp_path / "fuzz.json"
    for _ in range(1000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(60)))
        doc.write_bytes(blob)
        code, _, _ = invoke(capsys, "validate", str(doc))
        assert code in (0, 1, 2)
