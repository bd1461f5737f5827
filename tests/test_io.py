import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdimer import catalog
from tropdimer.io import SchemaError, canonicalize, parse_dimer, serialize_dimer


@pytest.mark.parametrize("name", catalog.NAMES)
def test_round_trip_is_bit_identical(name):
    text = catalog.catalog_text(name)
    dimer, _ = parse_dimer(text)
    assert serialize_dimer(dimer) == text


@pytest.mark.parametrize("name", catalog.NAMES)
def test_builders_reproduce_the_frozen_catalog(name):
    assert serialize_dimer(catalog.build(name)) == catalog.catalog_text(name)


@pytest.mark.parametrize("lookup", [catalog.build, catalog.catalog_text])
def test_catalog_refuses_an_unknown_name(lookup):
    with pytest.raises(ValueError, match="unknown catalog name 'nope'"):
        lookup("nope")


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


@pytest.mark.parametrize(
    "text,msg",
    [
        pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="deep"),
        pytest.param('{"boundary": [[[' + "1" * 5000 + ", 1]]]}", "digits", id="long-integer"),
    ],
)
def test_documents_the_decoder_cannot_hold_are_schema_errors(text, msg):
    with pytest.raises(SchemaError, match=msg):
        parse_dimer(text)


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
            '[{"color": "white", "vertices": 5}]}',
            "integer numerators",
            id="vertices-not-a-list",
        ),
        pytest.param(
            '{"schema": "tropdimer/1", "denominator": 1, "polytopes": '
            '[{"color": "white", "vertices": [5, [0,0], [1,1]]}]}',
            "integer numerators",
            id="vertex-not-a-pair",
        ),
        pytest.param(
            '{"schema": "tropdimer/1", "denominator": 1, "polytopes": '
            '[{"color": ["white"], "vertices": [[0,0],[1,0],[0,1]]}]}',
            "color",
            id="color-not-a-string",
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


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=80))
def test_parser_never_crashes_unhandled(blob):
    try:
        parse_dimer(blob.decode("utf-8", errors="replace"))
    except (json.JSONDecodeError, SchemaError, ValueError):
        pass
