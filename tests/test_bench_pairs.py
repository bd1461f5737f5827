"""The record writer of ``scripts/bench_pairs.py``, on canned result lines;
no benchmark is run."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def canned(ops, p50):
    """The output of one run: its report lines, then the result line."""
    result = {"correct": True, "attempted": 100, "failed": 0, "metrics": {
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
    }}
    return "workload cover-analysis, seed 7: 4 rounds\nattempted 100, failed 0\n" + json.dumps(result) + "\n\n"


def canned_runs():
    values = {("parent", 7): (400, 2.0), ("change", 7): (450, 1.8),
              ("change", 8): (440, 1.9), ("parent", 8): (410, 1.7)}
    return [{"workload": "cover-analysis", "tree": tree, "seed": seed, "seconds": 20, "trace": 0,
             "extra": "dropped", "result": bench_pairs.result_of(canned(*values[tree, seed]))}
            for tree, seed in values]


def test_result_is_the_last_line_of_a_run():
    assert bench_pairs.result_of(canned(400, 2.0)) == {
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {"ops_per_s": {"value": 400, "unit": "1/s"},
                    "op_ms_p50": {"value": 2.0, "unit": "ms"}},
    }


def test_record_has_the_schema_of_the_bench_files():
    record = bench_pairs.bench_record("abc1234", 20, canned_runs())
    assert list(record) == ["about", "command", "runs"]
    assert "parent is commit abc1234, change is this commit." in record["about"]
    assert record["command"] == (
        "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds 20 --trace <trace>")
    assert [list(run) for run in record["runs"]] == [
        ["workload", "tree", "seed", "seconds", "trace", "result"]] * 4
    assert [(run["tree"], run["seed"]) for run in record["runs"]] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)]
    assert record["runs"][1]["result"]["metrics"]["ops_per_s"]["value"] == 450
    # the committed records read the same way
    for path in sorted(ROOT.glob("BENCH_*.json")):
        committed = json.loads(path.read_text())
        assert list(committed) == list(record), path.name
        assert {tuple(run) for run in committed["runs"]} == {tuple(record["runs"][0])}, path.name


def test_summary_counts_the_pairs_the_change_won():
    assert bench_pairs.summary(canned_runs()) == [
        "cover-analysis ops_per_s: 405 -> 445 (parent quartiles 402.5-407.5; change better in 2/2 pairs)",
        "cover-analysis op_ms_p50: 1.85 -> 1.85 (parent quartiles 1.775-1.925; change better in 1/2 pairs)",
    ]


def test_a_failing_run_keeps_the_runs_before_it(monkeypatch, tmp_path, capsys):
    """The third run exits non-zero: the first pair is written and
    summarised, and the script exits 1 with that run's error."""
    calls = []

    def run_one(tree, workload, seed, seconds, trace):
        calls.append((tree.name, seed))
        if len(calls) == 3:
            raise SystemExit(f"error: {workload} seed {seed} exited 1:\nboom")
        return bench_pairs.result_of(canned(400 + len(calls), 2.0))

    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: "abc1234")
    monkeypatch.setattr(bench_pairs, "run_one", run_one)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD~1", "--out", str(out), "--workload", "cover-analysis",
                          "--pairs", "3", "--seed", "7", "--seconds", "20"])
    assert exc.value.code == "error: cover-analysis seed 8 exited 1:\nboom"
    assert len(calls) == 3
    record = json.loads(out.read_text())
    assert "parent is commit abc1234" in record["about"]
    assert [(run["tree"], run["seed"], run["result"]["metrics"]["ops_per_s"]["value"])
            for run in record["runs"]] == [("parent", 7, 401), ("change", 7, 402)]
    assert capsys.readouterr().out.splitlines() == [
        "cover-analysis ops_per_s: 401 -> 402 "
        "(parent quartiles 401-401; change better in 1/1 pairs)",
        "cover-analysis op_ms_p50: 2 -> 2 (parent quartiles 2-2; change better in 0/1 pairs)",
    ]
