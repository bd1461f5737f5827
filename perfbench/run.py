"""The tropdimer benchmark.

    python3 perfbench/run.py --workload cover-analysis --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``.
It times whole rounds of the workload (see ``workloads.py``) until
``--seconds`` have passed and at least the workload's minimum number of
rounds is done, checks every operation's output, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every time it reports is scaled to a reference CPU speed (``calibrate.py``).

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
rounds alternate between untraced and traced; the spans of the traced ones
are written to ``.perfbench_out/`` and reduced to per-layer metrics, and
the two kinds of round give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter

import calibrate
import ladder
import tracing

SETUP_REPEATS = 20
FLOOR_REPEATS = 5
# No run may take longer than this, whatever its operations do.
HARD_LIMIT_S = 150.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli-mix", "cover-analysis", "partition"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_fraction(ops_per_round: int, min_rounds: int) -> float:
    """Share of samples beyond the reported tail.

    The tail sits mid-way through the (j+1)-th slowest input of a round, for
    the least j that leaves at least ten samples beyond it in the fewest
    rounds a run makes.  Every run measures whole rounds, so this picks the
    same input whatever the number of rounds."""
    j = 0
    while (j + 0.5) * min_rounds < 10:
        j += 1
    return min((j + 0.5) / ops_per_round, 0.5)


class Sample:
    """One timed operation.  Once the run ends, ``seconds`` is its wall
    time without the calibration probes inside it, and ``scaled`` that time
    at the reference speed (``calibrate.py``)."""

    def __init__(self, group, start, end, traced, outcome):
        self.group, self.start, self.end = group, start, end
        self.traced, self.outcome = traced, outcome
        self.seconds = self.scaled = end - start


def run_op(wl, spec, tracer, speed, traced, op_id, budget, failures):
    """Time one operation, then check it; returns a Sample."""
    import workloads

    tracer.enabled = traced
    span = tracer.begin("op", op_id) if traced else None
    start = time.perf_counter()
    try:
        with speed.inside():
            result = wl.operate(spec, tracer, budget)
    except workloads.OpTimeout:
        result, error = None, "over its time budget"
    except Exception as exc:  # the operation's failure, counted below
        result, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if span is not None:
        tracer.end(span)
    if result is not None and traced:
        spec.replayed = wl.replay(spec, tracer)
    tracer.enabled = False
    if result is not None:
        try:
            outcome = wl.check(spec, result)
        except Exception as exc:  # an output the checks cannot even read
            result, error = None, f"check raised {type(exc).__name__}: {exc}"
    if result is None:
        outcome = workloads.Outcome()
        outcome.errors.append(error)
    wl.cleanup(spec)
    if outcome.errors:
        failures.append(f"{spec.label}: {'; '.join(outcome.errors)}")
    return Sample(spec.group, start, end, traced, outcome)


def measure(wl, args, tracer, speed, deadline):
    """Whole rounds until ``args.seconds`` have passed and the workload's
    minimum is met; a traced run alternates untraced and traced rounds.
    Calibration probes are taken between and inside operations."""
    rng = random.Random(args.seed)
    samples, failures = [], []
    start = time.perf_counter()
    rounds, ops_per_round, cut = 0, None, False
    while not cut and (rounds < wl.min_rounds or time.perf_counter() - start < args.seconds
                       or (args.trace and rounds % 2)):
        traced = bool(args.trace) and rounds % 2 == 1
        specs = wl.round(rng)
        ops_per_round = len(specs)
        for spec in specs:
            budget = min(wl.budget, deadline - time.perf_counter())
            if budget <= 0:
                cut = True
                break
            speed.maybe_probe()
            samples.append(
                run_op(wl, spec, tracer, speed, traced, len(samples), budget, failures))
        rounds += 1
    speed.probe()
    for s in samples:
        s.seconds, s.scaled = speed.scale(s.start, s.end)
    return samples, failures, rounds, ops_per_round, cut, time.perf_counter() - start


def measure_floors(speed):
    """Median time, at the reference speed, of a bare interpreter and of
    importing tropdimer.cli."""
    import workloads

    spans = {"bare": [], "full": []}
    for _ in range(FLOOR_REPEATS):
        for args, kind in ((["-c", "pass"], "bare"), (["-c", "import tropdimer.cli"], "full")):
            speed.probe()
            start = time.perf_counter()
            workloads.run_child(args, 30).check_returncode()
            spans[kind].append((start, time.perf_counter()))
    speed.probe()
    bare, full = ([speed.scale(*span)[1] for span in spans[kind]] for kind in ("bare", "full"))
    interp = statistics.median(bare)
    return 1000 * interp, 1000 * (statistics.median(full) - interp)


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.perf_counter()
    calibrate.pin_to_one_cpu()
    try:
        ladder.use_source_tree()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    reference = json.loads((ladder.ROOT / "perfbench" / "reference.json").read_text())
    outdir = ladder.ROOT / ".perfbench_out"
    wl = workloads.make(args.workload, reference, outdir / f"work-{args.workload}-{args.seed}")
    tracer = tracing.Tracer()
    speed = calibrate.Speed()

    # Set-up: a fresh interpreter importing what the workload uses, the
    # inputs, and a warm-up; repeated, and the median reported.
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        start = time.perf_counter()
        with speed.inside():
            workloads.run_child(wl.probe(), 60).check_returncode()
            wl.setup(tracer)
        setup_spans.append((start, time.perf_counter()))
    speed.probe()
    setup_times = [speed.scale(start, end)[1] for start, end in setup_spans]

    try:
        samples, failures, rounds, ops_per_round, cut, elapsed = measure(
            wl, args, tracer, speed, began + HARD_LIMIT_S)
    finally:
        wl.close()

    attempted = len(samples)
    failed = sum(1 for s in samples if s.outcome.errors)
    refusals = sum(s.outcome.refusals for s in samples)
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of {ops_per_round} "
          f"operations in {elapsed:.1f} s, {sum(s.seconds for s in samples):.1f} s of them "
          f"timed{' (cut at the time limit)' if cut else ''}; mean speed factor "
          f"{speed.mean():.3f} over {len(speed.factors)} calibration probes")
    print(f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4f}, "
          f"expected refusals {refusals}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    by_group = {}
    for sample in samples:
        by_group.setdefault(sample.group, []).append(1000 * sample.scaled)
    print("median scaled ms per input: " + ", ".join(
        f"{g} {statistics.median(v):.1f}" for g, v in sorted(by_group.items())))

    if args.trace:
        metrics = traced_metrics(samples, tracer, speed)
        interp_ms, import_ms = measure_floors(speed)
        metrics["cli.interp_ms"] = (interp_ms, "ms")
        metrics["cli.import_ms"] = (import_ms, "ms")
        outdir.mkdir(exist_ok=True)
        trace_path = outdir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ladder.ROOT)}")
    else:
        metrics = end_to_end(samples, setup_times, args.workload, ops_per_round, wl.min_rounds)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def ops_per_second(samples):
    good = [s for s in samples if not s.outcome.errors]
    return len(good) / sum(s.scaled for s in samples)


def end_to_end(samples, setup_times, workload, ops_per_round, min_rounds):
    times = sorted((s.scaled for s in samples), reverse=True)
    fraction = tail_fraction(ops_per_round, min_rounds)
    beyond = int(fraction * len(times))
    print(f"op_ms_tail is p{100 * (1 - beyond / len(times)):.1f} of {len(times)} samples, "
          f"{beyond} beyond it")
    usage = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops_per_second(samples), "1/s"),
        "op_ms_p50": (1000 * statistics.median(times), "ms"),
        "op_ms_tail": (1000 * times[beyond], "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }


def traced_metrics(samples, tracer, speed):
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    counts = Counter()
    for s in traced:
        counts.update(s.outcome.counts)
    metrics = tracing.per_layer(tracer.spans, lambda start, end: speed.scale(start, end)[1],
                                len(traced), sum(s.scaled for s in traced), counts)
    with_trace, without = ops_per_second(traced), ops_per_second(untraced)
    metrics["trace.ops_per_s"] = (with_trace, "1/s")
    metrics["trace.untraced_ops_per_s"] = (without, "1/s")
    metrics["trace.overhead"] = (without / with_trace - 1, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
