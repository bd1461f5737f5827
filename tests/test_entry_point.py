"""The `python -m tropdimer.cli` entry point in a fresh interpreter.

Each call prints what an in-process `run` prints, and imports only the
package modules its subcommand runs: `-X importtime` reports every module
the child imports on its stderr.  No call imports `dataclasses` or
`inspect`, whose import time every call would pay: the package's records
are plain classes, and `lattice.Record` is the one home of their equality,
hashing and order.  `scripts/render_gallery.py` runs here too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropdimer.cli import LAYERS, run

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# what every subcommand that reads a dimer loads
READS_DIMER = {"catalog", "dimer", "io", "lattice"}
# what `atf trade` loads: it writes a base diagram, and reads no dimer
TRADES = {"almost_toric", "catalog", "lattice", "tropical"}

CALLS = [
    (["catalog"], {"catalog", "lattice"}),
    (["genus", "3"], {"catalog", "lattice", "tropical"}),
    (["validate", "catalog:honeycomb"], READS_DIMER),
    (["fan", "catalog:honeycomb"], READS_DIMER | {"tropical"}),
    (["kasteleyn", "catalog:honeycomb"], READS_DIMER | {"kasteleyn"}),
    (["mutate", "catalog:honeycomb", "--face", "0"], READS_DIMER | {"mutation"}),
    (["render", "catalog:honeycomb", "--show", "edges,zigzags"], READS_DIMER | {"render"}),
    (["atf", "trade", "cp2"], TRADES),
    (["atf", "trade", "cp2", "--render"], TRADES | {"render"}),
]
# a call's first two words, and `--render` when it is given
CALL_IDS = [" ".join(argv[:2] + [a for a in argv if a == "--render"]) for argv, _ in CALLS]


def child(*argv):
    """Exit code, stdout, stderr and the `tropdimer` submodules imported by
    `python -m tropdimer.cli argv...` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TROPDIMER_COLOR", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tropdimer.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    modules, err = set(), []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("tropdimer."):
                modules.add(name.removeprefix("tropdimer."))
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "\n".join(err), modules


@pytest.mark.parametrize("argv, modules", CALLS, ids=CALL_IDS)
def test_child_matches_run_and_imports_only_its_modules(argv, modules, capsys, monkeypatch):
    monkeypatch.delenv("TROPDIMER_COLOR", raising=False)
    code = run(argv)
    out = capsys.readouterr().out
    assert child(*argv) == (code, out, "", modules)


def test_render_help_lists_every_layer():
    code, out, _, modules = child("render", "--help")
    assert code == 0
    assert all(layer in out for layer in LAYERS)
    assert modules == {"catalog", "lattice"}


@pytest.mark.parametrize("argv, message", [
    (["kasteleyn", "catalog:honeycomb", "--gauge", "bogus"], "argument --gauge: unknown gauge"),
    (["render", "catalog:honeycomb", "--show", "edges,bogus"], "argument --show: unknown layer"),
], ids=["gauge", "show"])
def test_bad_type_values_are_refused_at_parse_time(argv, message):
    code, out, err, modules = child(*argv)
    assert code == 2 and not out
    assert "usage: tropdimer" in err and message in err
    assert "io" not in modules  # refused before the input is read


@pytest.mark.parametrize("argv, message, modules", [
    (["atf", "trade", "cp2", "--corner", "7"], "error: non-corner index", TRADES),
    (["genus", "0"], "error: degree must be positive", {"catalog", "lattice", "tropical"}),
], ids=["atf trade", "genus"])
def test_a_refused_call_that_reads_no_dimer_exits_1_without_loading_io(argv, message, modules):
    # only `io` raises a SchemaError (exit 2), so the exit code needs no import
    assert child(*argv) == (1, "", message, modules)


@pytest.mark.parametrize("argv", [argv for argv, _ in CALLS], ids=CALL_IDS)
def test_child_imports_no_dataclasses_or_inspect(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tropdimer.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert "tropdimer.lattice" in names  # the report does list the package's imports
    assert not names & {"dataclasses", "inspect"}


def test_the_catalog_imports_no_importlib_resources():
    """Without `site` (`-S`), whose start-up hooks may load it anyway, the
    catalog reads its documents with `open` and loads no `importlib.resources`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c",
         "import tropdimer.catalog as c; print(len(c.catalog_text('honeycomb')))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert "tropdimer.catalog" in names
    assert not {n for n in names if n.startswith("importlib.resources")}


def test_no_package_module_imports_dataclasses_or_typing():
    for path in sorted((SRC / "tropdimer").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & {"dataclasses", "typing"}, path.name


RECORD_METHODS = {"__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__", "_fields"}


def test_only_the_record_bases_and_dual_dimer_define_record_methods():
    owners = set()
    for path in sorted((SRC / "tropdimer").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name in RECORD_METHODS for f in node.body
            ):
                owners.add(f"{path.stem}.{node.name}")
    assert owners == {"lattice.Record", "lattice.Ordered", "dimer.DualDimer"}


def test_render_gallery_writes_every_catalog_dimer_and_traded_diagram(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "render_gallery.py"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    svgs = sorted(tmp_path.glob("*.svg"))
    assert len(svgs) == 13
    assert len([p for p in svgs if p.name.startswith("diagram-")]) == 5
    for path in svgs:
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>"), path.name
