"""Every subcommand's output is pinned byte for byte.

The digests in ``golden_cli.json`` are written by ``scripts/cli_corpus.py``;
rerun it only when an output is meant to change.
"""

import importlib.util
import json
import pathlib

import pytest

from tropdimer import catalog

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "scripts" / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)

GOLDEN = json.loads((ROOT / "tests" / "golden_cli.json").read_text())


def test_corpus_covers_every_entry_form_and_command():
    expected = len(catalog.NAMES) * len(cli_corpus.FORMS) * len(cli_corpus.commands())
    for covers, argvs in (
        (cli_corpus.COVERS, cli_corpus.cover_commands()),
        (cli_corpus.LARGE_COVERS, cli_corpus.large_cover_commands()),
        (cli_corpus.IMMERSED_COVERS, cli_corpus.validate_commands()),
    ):
        expected += len(covers) * len(cli_corpus.FORMS) * len(argvs)
    expected += len(cli_corpus.standalone_commands())
    assert len(GOLDEN) == expected


ENTRIES = catalog.NAMES + cli_corpus.COVERS + cli_corpus.LARGE_COVERS + cli_corpus.IMMERSED_COVERS


@pytest.mark.parametrize("name", ENTRIES)
def test_cli_output_matches_golden_digest(name):
    got = cli_corpus.corpus([name])
    want = {k: v for k, v in GOLDEN.items() if k.split(" ", 1)[0].split(":", 1)[1] == name}
    assert want, f"no golden digests for {name}"
    assert sorted(k for k in want if got.get(k) != want[k]) == []
    assert got.keys() == want.keys()


def test_standalone_output_matches_golden_digest():
    got = cli_corpus.standalone_corpus()
    want = {k: v for k, v in GOLDEN.items() if k.startswith("none:")}
    assert sorted(k for k in want if got.get(k) != want[k]) == []
    assert got.keys() == want.keys()
