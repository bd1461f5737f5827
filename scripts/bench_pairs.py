#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as one record.

Extracts the parent commit with ``git archive`` into a temporary directory
(so ``.git`` is not touched), then for each workload runs ``--pairs`` pairs
of ``perfbench/run.py``, one from the root of each tree with the same seed,
the parent first in even pairs and the change first in odd ones.  The
change is this checkout's working tree.  The final JSON line of every run
goes into ``--out`` in the schema of the ``BENCH_<n>.json`` files, and a
summary of the metrics is printed: each tree's median, the parent's
quartiles, and in how many pairs the change was better.  When a run exits
non-zero, the runs before it are written and summarised all the same, and
the script exits 1 with that run's error.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_<n>.json \\
        --workload cover-analysis --workload partition --pairs 5 --seed 91
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds} --trace <trace>"


def result_of(stdout: str) -> dict:
    """The result object of a run: the last non-empty line of its output."""
    return json.loads(stdout.strip().splitlines()[-1])


def bench_record(parent: str, seconds: int, runs: list) -> dict:
    """The ``BENCH_<n>.json`` record of ``runs``, dicts with ``workload``,
    ``tree``, ``seed``, ``seconds``, ``trace`` and ``result``."""
    return {
        "about": "Final JSON lines of perfbench/run.py, run from the root of two checkouts in "
        f"alternating parent/change pairs on a {os.cpu_count()}-CPU machine: parent is commit "
        f"{parent}, change is this commit.",
        "command": COMMAND.format(seconds=seconds),
        "runs": [{key: run[key] for key in ("workload", "tree", "seed", "seconds", "trace", "result")}
                 for run in runs],
    }


def summary(runs: list) -> list:
    """One line per workload and metric: the parent's and the change's
    medians, the parent's quartiles, and the pairs the change won (the
    rates are better higher, everything else lower)."""
    lines = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["tree"]] = run["result"]["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        for name in pairs[0]["parent"] if pairs else ():
            old = [p["parent"][name]["value"] for p in pairs]
            new = [p["change"][name]["value"] for p in pairs]
            wins = sum((n > o) if name.endswith("ops_per_s") else (n < o) for o, n in zip(old, new))
            q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else (old[0],) * 3
            lines.append(f"{workload} {name}: {statistics.median(old):.4g} -> "
                         f"{statistics.median(new):.4g} (parent quartiles {q1:.4g}-{q3:.4g}; "
                         f"change better in {wins}/{len(pairs)} pairs)")
    return lines


def extract(rev: str, into: pathlib.Path) -> str:
    """Extract commit ``rev`` into ``into``; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", short], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.11.4 and later)
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return short


def run_one(tree: pathlib.Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return result_of(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--out", required=True, type=pathlib.Path)
    p.add_argument("--workload", action="append", required=True,
                   choices=("cli-mix", "cover-analysis", "partition"))
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = extract(args.parent, pathlib.Path(tmp))
        trees = {"parent": pathlib.Path(tmp), "change": ROOT}
        try:
            for workload in args.workload:
                for k in range(args.pairs):
                    seed = args.seed + k
                    for tree in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                        result = run_one(trees[tree], workload, seed, args.seconds, args.trace)
                        runs.append({"workload": workload, "tree": tree, "seed": seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     "result": result})
                        print(f"{workload} {tree} seed {seed}: correct {result['correct']}, "
                              f"failed {result['failed']}", file=sys.stderr, flush=True)
        finally:  # a run that exits non-zero raises SystemExit: keep the runs before it
            record = bench_record(parent, args.seconds, runs)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
