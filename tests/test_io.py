import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdimer import catalog
from tropdimer.io import (
    SchemaError,
    canonicalize,
    parse_diagram,
    parse_dimer,
    serialize_diagram,
    serialize_dimer,
)
from tropdimer.lattice import Vec2


@pytest.mark.parametrize("name", catalog.NAMES)
def test_round_trip_is_bit_identical(name):
    text = catalog.catalog_text(name)
    dimer, _ = parse_dimer(text)
    assert serialize_dimer(dimer) == text


@pytest.mark.parametrize("name", catalog.NAMES)
def test_builders_reproduce_the_frozen_catalog(name):
    assert serialize_dimer(catalog.build(name)) == catalog.catalog_text(name)


def test_generate_catalog_script_writes_the_frozen_catalog(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "generate_catalog.py"
    spec = importlib.util.spec_from_file_location("generate_catalog", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.json" for n in catalog.NAMES)
    for name in catalog.NAMES:
        assert (tmp_path / f"{name}.json").read_text() == catalog.catalog_text(name)
    assert capsys.readouterr().out.count("wrote ") == 8


def test_canonicalization_is_idempotent(honeycomb):
    once = canonicalize(honeycomb)
    assert canonicalize(once) == once


def test_canonicalization_puts_whites_first(honeycomb):
    colors = [p.color for p in canonicalize(honeycomb).polytopes]
    assert colors == sorted(colors, reverse=True)  # "white" > "black"


def test_malformed_json_raises_decode_error():
    with pytest.raises(json.JSONDecodeError):
        parse_dimer("{")


@pytest.mark.parametrize("parse", [parse_dimer, parse_diagram])
@pytest.mark.parametrize(
    "text,msg",
    [
        pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="deep"),
        pytest.param('{"boundary": [[[' + "1" * 5000 + ", 1]]]}", "digits", id="long-integer"),
    ],
)
def test_documents_the_decoder_cannot_hold_are_schema_errors(parse, text, msg):
    with pytest.raises(SchemaError, match=msg):
        parse(text)


@pytest.mark.parametrize(
    "doc,msg",
    [
        ('{"schema": "other"}', "schema"),
        ('{"schema": "tropdimer/1", "denominator": 0, "polytopes": []}', "denominator"),
        (
            '{"schema": "tropdimer/1", "denominator": 1, "polytopes": '
            '[{"color": "green", "vertices": [[0,0],[1,0],[0,1]]}]}',
            "color",
        ),
        pytest.param(
            '{"schema": "tropdimer/1", "denominator": true, "polytopes": '
            '[{"color": "white", "vertices": [[0,0],[1,0],[0,1]]}]}',
            "denominator",
            id="boolean-denominator",
        ),
        pytest.param(
            '{"schema": "tropdimer/1", "denominator": 1, "polytopes": '
            '[{"color": "white", "vertices": [[false,false],[true,false],[0,1]]}]}',
            "integer numerators",
            id="boolean-numerators",
        ),
        pytest.param(
            '{"schema": "tropdimer/1", "denominator": 1, "polytopes": '
            '[{"color": "white", "vertices": [[0,0],[1,0],[0,1]]}], '
            '"weights": {"w0-b1@0,0": [true, 1]}}',
            "weight must be",
            id="boolean-weight",
        ),
    ],
)
def test_schema_violations(doc, msg):
    with pytest.raises(SchemaError, match=msg):
        parse_dimer(doc)


def test_diagram_round_trip():
    from tropdimer.almost_toric import BaseDiagram, trade_all_corners

    diagram = trade_all_corners(BaseDiagram(catalog.MOMENT_POLYGONS["cp2"]))
    text = serialize_diagram(diagram)
    back = parse_diagram(text)
    assert serialize_diagram(back) == text
    assert len(back.nodes) == 3


@pytest.mark.parametrize(
    "old,new,msg",
    [
        pytest.param(
            '"position":[[-2,1],', '"position":[[-2,true],', "rational must be", id="rational"
        ),
        pytest.param('"eigenray":[-1,-1]', '"eigenray":[true,-1]', "eigenray must be", id="eigenray"),
        pytest.param(
            '"multiplicity":1', '"multiplicity":true', "multiplicity must be", id="multiplicity"
        ),
    ],
)
def test_diagram_refuses_booleans_as_integers(old, new, msg):
    from tropdimer.almost_toric import BaseDiagram, trade_all_corners

    text = serialize_diagram(trade_all_corners(BaseDiagram(catalog.MOMENT_POLYGONS["cp2"])))
    assert old in text
    with pytest.raises(SchemaError, match=msg):
        parse_diagram(text.replace(old, new, 1))


@pytest.mark.parametrize(
    "edit,msg",
    [
        pytest.param(lambda d: d["nodes"][0].pop("position"), "position", id="node-without-position"),
        pytest.param(lambda d: d.update(boundary=5), "boundary must be", id="boundary-not-a-list"),
        pytest.param(lambda d: d.update(nodes=5), "nodes must be", id="nodes-not-a-list"),
        pytest.param(lambda d: d.update(traded=5), "traded must be", id="traded-not-a-list"),
        pytest.param(
            lambda d: d["nodes"][0].update(eigenray=[2, -2]),
            "eigenray must be",
            id="non-primitive-eigenray",
        ),
        pytest.param(
            lambda d: d["nodes"][0].update(eigenray=[0, 0]), "eigenray must be", id="zero-eigenray"
        ),
        pytest.param(
            lambda d: d["nodes"][0].update(multiplicity=0),
            "multiplicity must be",
            id="zero-multiplicity",
        ),
    ],
)
def test_diagram_schema_violations(edit, msg):
    from tropdimer.almost_toric import BaseDiagram, trade_all_corners

    doc = json.loads(serialize_diagram(trade_all_corners(BaseDiagram(catalog.MOMENT_POLYGONS["cp2"]))))
    edit(doc)
    with pytest.raises(SchemaError, match=msg):
        parse_diagram(json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_parser_never_crashes_unhandled(blob):
    try:
        parse_dimer(blob.decode("utf-8", errors="replace"))
    except (json.JSONDecodeError, SchemaError, ValueError):
        pass


@pytest.mark.parametrize(
    "boundary",
    [
        pytest.param([[0, 0], [0, 4], [4, 0]], id="clockwise"),
        pytest.param([[0, 0], [4, 0], [1, 1], [0, 4]], id="not-convex"),
        pytest.param([[0, 0], [2, 0], [4, 0], [0, 4]], id="collinear-corner"),
        pytest.param([[0, 0], [4, 0]], id="two-points"),
    ],
)
def test_diagram_refuses_a_boundary_that_is_not_a_convex_counterclockwise_polygon(boundary):
    doc = {
        "schema": "tropdimer-diagram/1",
        "boundary": [[[x, 1], [y, 1]] for x, y in boundary],
        "nodes": [],
    }
    with pytest.raises(SchemaError, match="strictly convex counterclockwise polygon"):
        parse_diagram(json.dumps(doc))


def test_diagram_boundary_with_rational_corners_parses():
    doc = {
        "schema": "tropdimer-diagram/1",
        "boundary": [[[0, 1], [0, 1]], [[1, 2], [0, 1]], [[0, 1], [1, 3]]],
    }
    assert parse_diagram(json.dumps(doc)).boundary.contains(
        Vec2(Fraction(1, 8), Fraction(1, 8)), strict=True
    )
