"""Spans recorded around the benchmark's calls into the package.

A span is (name, start, end, parent, operation id); spans live in memory
and are written out once, when the run ends.  Only the benchmark places
spans, around each call into a module's public functions, so a stage's time
includes whatever the package does inside that call.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Each traced stage reports <stage>.ms, <stage>.calls and <stage>.share.
CLI_SUBCOMMANDS = (
    "validate", "graph", "zigzags", "fan", "kasteleyn", "matchings", "euler",
    "directions", "compare-seed", "mutate", "render", "atf", "genus", "catalog",
)
STAGES = (
    "io.parse_dimer",
    "io.serialize_dimer",
    "dimer.validate",
    "dimer.build_graph",
    "dimer.zigzag_paths",
    "dimer.fan",
    "dimer.faces",
    "kasteleyn.signs",
    "kasteleyn.matrix",
    "kasteleyn.determinant",
    "kasteleyn.format",
    "mutation.euler",
    "mutation.directions",
    "mutation.mutate_face",
    "render.render_dimer",
) + tuple(f"cli.run.{sub}" for sub in CLI_SUBCOMMANDS)

# Sizes counted outside the timed interval, reported per operation.
COUNTS = (
    "io.input_bytes",
    "dimer.polytopes",
    "dimer.edges",
    "dimer.faces.count",
    "dimer.zigzags.count",
    "kasteleyn.n",
    "kasteleyn.nnz",
    "kasteleyn.terms",
    "kasteleyn.abs_coeff_sum",
    "mutation.refusals",
    "render.output_bytes",
)


class Tracer:
    """Collects spans while ``enabled``; otherwise ``call`` is a plain call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.enabled = False
        self._open = None
        self._op = None

    def begin(self, name: str, op: int) -> int:
        self._op = op
        self.spans.append([name, time.perf_counter(), None, None, op])
        self._open = len(self.spans) - 1
        return self._open

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._open = None

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, time.perf_counter(), self._open, self._op])

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans, duration):
    """Per span name: (total self time in s, number of spans).

    Self time is a span's duration, ``duration(start, end)``, minus the
    durations of its child spans.
    """
    lengths = [duration(start, end) for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child[parent] += lengths[k]
    totals: dict = {}
    for k, (name, _, _, _, _) in enumerate(spans):
        t, n = totals.get(name, (0.0, 0))
        totals[name] = (t + lengths[k] - child[k], n + 1)
    return totals


def per_layer(spans, duration, ops: int, op_seconds: float, counts: Counter) -> dict:
    """Reduce the spans of ``ops`` operations, taking ``op_seconds`` in all,
    to the per-layer table: per operation, self time, calls and share."""
    totals = self_times(spans, duration)
    out = {}
    for stage in STAGES:
        t, n = totals.get(stage, (0.0, 0))
        out[f"{stage}.ms"] = (1000 * t / ops, "ms")
        out[f"{stage}.calls"] = (n / ops, "count")
        out[f"{stage}.share"] = (t / op_seconds, "ratio")
    for name in COUNTS:
        out[name] = (float(counts[name] / ops), "bytes" if name.endswith("bytes") else "count")
    return out
