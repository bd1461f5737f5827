"""The three workloads, the operations they time and the checks on each result.

Each workload is a closed loop with one client: one operation at a time, in
one process and thread (``cli-mix`` waits on one child process at a time).
A round is one pass over the workload's inputs in a seeded order; runs
measure whole rounds, so every run times the same mix of input sizes.

Checks run after an operation's timer stops.  Outputs are compared with
``reference.json``, recorded once from the unlifted inputs by ``record.py``,
and with independent oracles.  An expected refusal (below) is a correct
outcome; any other exception, a wrong output, a wrong exit code or an
operation over its time budget is a failure.

Import this module only after ``ladder.use_source_tree()``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO

import ladder
import oracles
from tropdimer import catalog, cli, dimer, io as tio, kasteleyn, mutation, render

IMMERSED_REFUSAL = "faces undefined for immersed dimer"
COVER_REFUSAL = "zigzag surface is not a torus"
# The pipeline stage each refusable CLI subcommand runs into.
CLI_STAGES = {"euler": "mutation.euler", "directions": "mutation.directions",
              "mutate": "mutation.mutate_face"}
RENDER_SHOW = ("edges", "zigzags")


def refusal_expected(base: str, covered: bool, stage, message: str) -> bool:
    """Whether ``stage`` may refuse with ``message`` on catalog entry ``base``
    (``covered``: on a proper cover of it).

    Faces, and so everything built on them, are undefined on an immersed
    dimer; neither an immersed dimer nor a proper cover, which is not a
    minimal dimer, has a torus as zigzag surface."""
    immersed = base in ladder.IMMERSED and not covered
    if message == COVER_REFUSAL:
        return stage == "mutation.directions" and (covered or immersed)
    return message == IMMERSED_REFUSAL and immersed and stage in (
        "dimer.faces", "mutation.euler", "mutation.mutate_face")


class OpTimeout(BaseException):
    """An operation ran past its time budget.

    A BaseException, so that no handler inside the package swallows it."""


class Refusal:
    def __init__(self, message: str):
        self.message = message


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@contextmanager
def time_budget(seconds: float):
    """Raise OpTimeout in the running code once ``seconds`` have passed."""

    def expire(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Outcome:
    """What the checks found for one operation."""

    def __init__(self):
        self.errors = []
        self.refusals = 0
        self.counts = {}

    def expect(self, cond: bool, what: str):
        if not cond:
            self.errors.append(what)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ladder.SRC)
    env.pop("TROPDIMER_COLOR", None)
    return env


def run_child(args, timeout):
    """Run ``python args...`` in the checkout; returns the CompletedProcess."""
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=ladder.ROOT, env=child_env(),
            capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise OpTimeout() from None


# ---------------------------------------------------------------------------
# in-process pipelines


def _refusable(tr, name, fn, *args):
    try:
        return tr.call(name, fn, *args)
    except ValueError as exc:
        return Refusal(str(exc))


def _mutate_first_face(d, all_faces):
    return mutation.mutate_face(d, all_faces[0], mutation.exact_assignment(d))


def analyse(tr, text):
    """The structural pipeline of ``cover-analysis``; returns (dimer, outputs)."""
    d, _ = tr.call("io.parse_dimer", tio.parse_dimer, text)
    out = {
        "dimer.validate": tr.call("dimer.validate", dimer.validate, d),
        "dimer.build_graph": tr.call("dimer.build_graph", dimer.build_graph, d),
        "dimer.zigzag_paths": tr.call("dimer.zigzag_paths", dimer.zigzag_paths, d),
        "dimer.fan": tr.call("dimer.fan", dimer.dimer_to_tropical_fan, d),
        "dimer.faces": _refusable(tr, "dimer.faces", dimer.faces, d),
        "kasteleyn.signs": tr.call("kasteleyn.signs", kasteleyn.kasteleyn_signs, d),
        "kasteleyn.matrix": tr.call("kasteleyn.matrix", kasteleyn.kasteleyn_matrix, d),
        "mutation.euler": _refusable(tr, "mutation.euler", mutation.euler_characteristic, d),
        "mutation.directions": _refusable(
            tr, "mutation.directions", mutation.mutation_directions, d),
    }
    all_faces = out["dimer.faces"]
    if isinstance(all_faces, Refusal):
        out["mutation.mutate_face"] = all_faces  # there is no face 0 to mutate
    else:
        out["mutation.mutate_face"] = _refusable(
            tr, "mutation.mutate_face", _mutate_first_face, d, all_faces)
    out["io.serialize_dimer"] = tr.call("io.serialize_dimer", tio.serialize_dimer, d)
    out["render.render_dimer"] = tr.call(
        "render.render_dimer", render.render_dimer, d, RENDER_SHOW)
    return d, out


def _matrix(d, graph, gauge):
    return kasteleyn.kasteleyn_matrix(d, kasteleyn.make_gauge(graph, gauge))


def partition_function(tr, text, gauge):
    """The ``kasteleyn`` command's work; returns (dimer, outputs)."""
    d, _ = tr.call("io.parse_dimer", tio.parse_dimer, text)
    out = {
        "dimer.validate": tr.call("dimer.validate", dimer.validate, d),
        "dimer.build_graph": tr.call("dimer.build_graph", dimer.build_graph, d),
    }
    out["kasteleyn.matrix"] = tr.call(
        "kasteleyn.matrix", _matrix, d, out["dimer.build_graph"], gauge)
    det = tr.call("kasteleyn.determinant", kasteleyn.determinant, out["kasteleyn.matrix"])
    out["kasteleyn.format"] = tr.call("kasteleyn.format", kasteleyn.format_laurent, det)
    return d, out


def static_svg(svg: str) -> str:
    """The render without its overlay: edge lines and zigzag polylines are
    drawn from the stored lifts, so a lift moves them; polygons are drawn
    canonically."""
    return "".join(line for line in svg.splitlines(True)
                   if not line.startswith(("<line ", "<polyline ")))


def describe(stage: str, value) -> str:
    """A stage's output as text; the reference stores its digest."""
    if isinstance(value, Refusal):
        return "refused: " + value.message
    if stage == "dimer.validate":
        return "\n".join(value.lines()) + f"\nok={value.ok}"
    if stage == "dimer.build_graph":
        return json.dumps([list(value.whites), list(value.blacks),
                           [e.edge_id for e in value.edges]])
    if stage in ("dimer.zigzag_paths", "mutation.directions"):
        classes = [p.cls for p in value] if stage == "dimer.zigzag_paths" else value
        return json.dumps([[c.a, c.b] for c in classes])
    if stage == "dimer.fan":
        return json.dumps([[str(e.ray.x), str(e.ray.y), e.multiplicity] for e in value.edges])
    if stage == "dimer.faces":
        return repr([(f.boundary, f.edge_indices, f.orientations, (f.cls.a, f.cls.b))
                     for f in value])
    if stage == "kasteleyn.matrix":
        return json.dumps([list(value.rows), list(value.cols),
                           [kasteleyn.format_laurent(e) for e in value.entries]])
    if stage == "mutation.mutate_face":
        return tio.serialize_dimer(value.dimer) + f"immersed: {value.immersed}"
    if stage == "render.render_dimer":
        return static_svg(value)
    return str(value)


def fingerprints(outputs: dict) -> dict:
    return {stage: digest(describe(stage, value)) for stage, value in outputs.items()}


def structural_counts(d, outputs: dict) -> dict:
    counts = {"dimer.polytopes": len(d.polytopes)}
    graph = outputs["dimer.build_graph"]
    counts["dimer.edges"] = len(graph.edges)
    if "dimer.zigzag_paths" in outputs:
        counts["dimer.zigzags.count"] = len(outputs["dimer.zigzag_paths"])
    faces = outputs.get("dimer.faces")
    if faces is not None and not isinstance(faces, Refusal):
        counts["dimer.faces.count"] = len(faces)
    m = outputs["kasteleyn.matrix"]
    counts["kasteleyn.n"] = len(m.rows)
    counts["kasteleyn.nnz"] = sum(not e.is_zero for e in m.entries)
    return counts


class Spec:
    """One operation of a round: its label, the input it belongs to, and its
    prepared inputs."""

    def __init__(self, label: str, group: str, **fields):
        self.label, self.group = label, group
        self.__dict__.update(fields)


class Workload:
    """Hooks run around each operation; only ``cli-mix`` needs them."""

    def replay(self, spec, tr):
        """In a traced round, repeat the operation in-process under spans."""
        return None

    def cleanup(self, spec):
        pass

    def close(self):
        pass


class CoverAnalysis(Workload):
    ladder = ladder.COVER_LADDER
    budget = 30.0
    min_rounds = 4

    def __init__(self, reference: dict):
        self.reference = reference
        self.rounds = 0

    def probe(self):
        return ["-c", "import tropdimer.io, tropdimer.dimer, tropdimer.kasteleyn, "
                      "tropdimer.mutation, tropdimer.render"]

    def setup(self, tr):
        """Build the canonical documents and warm up on the smallest one."""
        self.docs = {r.name: r.doc(catalog.catalog_text) for r in self.ladder}
        self.operate(Spec("warm-up", "pants-min", rung="pants-min",
                          text=ladder.dump(self.docs["pants-min"])), tr, self.budget)

    def round(self, rng):
        order = list(self.ladder)
        rng.shuffle(order)
        return [Spec(r.name, r.name, rung=r.name,
                     text=ladder.dump(ladder.lift(self.docs[r.name], rng)))
                for r in order]

    def operate(self, spec, tr, budget):
        with time_budget(budget):
            return analyse(tr, spec.text)

    def check(self, spec, result) -> Outcome:
        d, outputs = result
        outcome = Outcome()
        want = self.reference["pipeline"][spec.rung]
        for stage, got in fingerprints(outputs).items():
            outcome.expect(got == want[stage], f"{stage} output differs from the reference")
        # The fingerprints hold each refusal's message, so a refusal that is
        # missing or unexpected fails above; here they are only counted.
        outcome.refusals = sum(isinstance(v, Refusal) for v in outputs.values())
        counts = structural_counts(d, outputs)
        classes = [p.cls for p in outputs["dimer.zigzag_paths"]]
        outcome.expect(sum(c.a for c in classes) == 0 and sum(c.b for c in classes) == 0,
                       "zigzag classes do not sum to 0")
        if "dimer.faces.count" in counts:
            outcome.expect(
                counts["dimer.polytopes"] - counts["dimer.edges"] + counts["dimer.faces.count"] == 0,
                "V - E + F != 0")
        svg = outputs["render.render_dimer"]
        outcome.expect(svg.count("<polygon ") == counts["dimer.polytopes"], "render: polygons")
        outcome.expect(svg.count("<line ") == counts["dimer.edges"], "render: edge lines")
        outcome.expect(svg.count('<g class="zigzag"') == counts["dimer.zigzags.count"],
                       "render: zigzag groups")
        counts["io.input_bytes"] = len(spec.text)
        counts["render.output_bytes"] = len(svg)
        counts["mutation.refusals"] = outcome.refusals
        outcome.counts = counts
        return outcome


class Partition(CoverAnalysis):
    ladder = ladder.PARTITION_LADDER
    budget = 60.0
    min_rounds = 4

    def probe(self):
        return ["-c", "import tropdimer.io, tropdimer.dimer, tropdimer.kasteleyn"]

    def setup(self, tr):
        """Canonical documents, the expected polynomials, and a warm-up."""
        self.docs = {r.name: r.doc(catalog.catalog_text) for r in self.ladder}
        self.expected = {}
        for r in self.ladder:
            det = oracles.parse_laurent(self.reference["partition"][r.name]["det"])
            product = None
            if (r.kx, r.ky) == (2, 2):
                base = self.reference["cli"][f"kasteleyn {r.base} --gauge paper"]["text"]
                product = oracles.cover_product(oracles.parse_laurent(base))
            self.expected[r.name] = (oracles.normalized(det), product)
        warm = ladder.dump(ladder.load_doc(catalog.catalog_text("honeycomb")))
        with time_budget(self.budget):
            partition_function(tr, warm, "trivial")

    def round(self, rng):
        """Every rung once, in a seeded order; each rung alternates from round
        to round between the trivial gauge and a seeded random one."""
        self.rounds += 1
        order = list(enumerate(self.ladder))
        rng.shuffle(order)
        specs = []
        for i, r in order:
            text = ladder.dump(ladder.lift(self.docs[r.name], rng))
            gauge = "trivial" if (i + self.rounds) % 2 else f"random:{rng.randrange(10**6)}"
            specs.append(Spec(f"{r.name} {gauge}", r.name, rung=r.name, text=text, gauge=gauge))
        return specs

    def operate(self, spec, tr, budget):
        with time_budget(budget):
            return partition_function(tr, spec.text, spec.gauge)

    def check(self, spec, result) -> Outcome:
        d, outputs = result
        outcome = Outcome()
        want = self.reference["pipeline"][spec.rung]
        for stage in ("dimer.validate", "dimer.build_graph"):
            outcome.expect(digest(describe(stage, outputs[stage])) == want[stage],
                           f"{stage} output differs from the reference")
        ref = self.reference["partition"][spec.rung]
        text = outputs["kasteleyn.format"]
        det = oracles.parse_laurent(text)
        if spec.gauge == "trivial":
            outcome.expect(text == ref["det"], "determinant differs from the reference")
        normal, product = self.expected[spec.rung]
        outcome.expect(oracles.normalized(det) == normal,
                       "normalized determinant depends on the gauge")
        total = oracles.abs_coeff_sum(det)
        outcome.expect(total == ref["matchings"], "sum |coefficients| != matching count")
        if product is not None:
            outcome.expect(oracles.equal_up_to_sign(oracles.normalized(det), product),
                           "2x2 cover determinant != product over the base's sign twists")
        counts = structural_counts(d, outputs)
        counts["kasteleyn.terms"] = len(det)
        counts["kasteleyn.abs_coeff_sum"] = total
        counts["io.input_bytes"] = len(spec.text)
        outcome.counts = counts
        return outcome


# ---------------------------------------------------------------------------
# the CLI mix


class CliChoice:
    """One command line; ``{input}`` stands for a lifted copy of ``entry``."""

    def __init__(self, sub, argv, entry=None, check="exact", key=None):
        self.sub, self.argv, self.entry, self.check = sub, argv, entry, check
        self.key = key or " ".join(a.replace("{input}", entry or "") for a in argv)


def cli_variants():
    """The mix: one pool per subcommand, and per round one choice from each.

    The weights are uniform over the subcommands by assumption, not taken
    from measured use; within a pool every catalog entry and variant is
    equally likely."""
    entries = ladder.CATALOG
    surfaces = sorted(catalog.MOMENT_POLYGONS)

    def on(sub, *extra, check="exact"):
        return [CliChoice(sub, [sub, "{input}", *extra], e, check) for e in entries]

    def fixed(sub, *argvs):
        return [CliChoice(sub, list(argv)) for argv in argvs]

    return {
        "validate": on("validate"),
        "graph": on("graph"),
        "zigzags": on("zigzags"),
        "fan": on("fan"),
        "kasteleyn": on("kasteleyn", "--gauge", "paper") + [
            CliChoice("kasteleyn", ["kasteleyn", "{input}", "--gauge", "random:{gauge}"], e,
                      "gauge", key=f"kasteleyn {e} --gauge paper") for e in entries],
        "matchings": on("matchings"),
        "euler": on("euler"),
        "directions": on("directions"),
        "compare-seed": [
            CliChoice("compare-seed", ["compare-seed", "{input}", catalog.SEED_FAN[e]], e)
            for e in ladder.SEEDS],
        "mutate": on("mutate", "--face", "0"),
        "render": on("render", "--show", ",".join(RENDER_SHOW), check="render"),
        "atf": fixed("atf", *(["atf", kind, s] for kind in ("trade", "inner", "outer")
                              for s in surfaces),
                     *(["atf", "exchange", s] for s in surfaces + ["local"]),
                     *(["atf", "an", str(n)] for n in (1, 2, 3))),
        "genus": fixed("genus", *(["genus", str(d)] for d in range(1, 9))),
        "catalog": fixed("catalog", ["catalog"], *(["catalog", e] for e in entries)),
    }


def render_shape(svg: str) -> dict:
    return {"polygons": svg.count("<polygon "), "lines": svg.count("<line "),
            "zigzags": svg.count('<g class="zigzag"'), "static": digest(static_svg(svg))}


class CliMix(Workload):
    budget = 20.0
    min_rounds = 5

    def __init__(self, reference: dict, workdir):
        self.reference = reference
        self.workdir = workdir
        self.variants = cli_variants()
        self.made = 0
        self.rounds = 0

    def probe(self):
        return ["-m", "tropdimer.cli", "catalog"]

    def setup(self, tr):
        self.docs = {e: ladder.load_doc(catalog.catalog_text(e)) for e in ladder.CATALOG}
        self.workdir.mkdir(parents=True, exist_ok=True)

    def round(self, rng):
        """One choice from each pool, in a seeded order.  Each pool is drawn
        without replacement: its choices in a seeded order, over and over."""
        if not self.rounds:
            for pool in self.variants.values():
                rng.shuffle(pool)
        order = list(self.variants)
        rng.shuffle(order)
        specs = []
        for pool in order:
            choices = self.variants[pool]
            choice = choices[self.rounds % len(choices)]
            argv = [a.replace("{gauge}", str(rng.randrange(10**6))) for a in choice.argv]
            text = None
            if choice.entry is not None:
                text = ladder.dump(ladder.lift(self.docs[choice.entry], rng))
            specs.append(Spec(" ".join(argv), pool, choice=choice, argv=argv, text=text))
        self.rounds += 1
        return specs

    def operate(self, spec, tr, budget):
        spec.path = None
        if spec.text is not None:
            self.made += 1
            spec.path = self.workdir / f"input-{self.made}.json"
            spec.path.write_text(spec.text)
        spec.final_argv = [str(spec.path) if a == "{input}" else a for a in spec.argv]
        return run_child(["-m", "tropdimer.cli", *spec.final_argv], budget)

    def replay(self, spec, tr):
        """The same command line through ``tropdimer.cli.run``, in this process."""
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = tr.call(f"cli.run.{spec.choice.sub}", cli.run, spec.final_argv)
        return code, out.getvalue()

    def cleanup(self, spec):
        if spec.path is not None:
            spec.path.unlink()

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def check(self, spec, proc) -> Outcome:
        outcome = Outcome()
        choice = spec.choice
        ref = self.reference["cli"][choice.key]
        stdout = proc.stdout.decode()
        stderr = proc.stderr.decode()
        outcome.expect(proc.returncode == ref["exit"],
                       f"exit code {proc.returncode}, expected {ref['exit']}")
        outcome.expect(stderr == ref["err"], f"stderr differs: {stderr.strip()[:200]}")
        if choice.check == "exact":
            outcome.expect(digest(stdout) == ref["out"], "stdout differs from the reference")
        elif choice.check == "render":
            outcome.expect(render_shape(stdout) == ref["render"], "render differs from the reference")
        elif choice.check == "gauge":
            got = oracles.normalized(oracles.parse_laurent(stdout))
            outcome.expect(got == oracles.normalized(oracles.parse_laurent(ref["text"])),
                           "normalized determinant depends on the gauge")
        if choice.sub == "zigzags" and proc.returncode == 0:
            pairs = [line.strip("<>").split(",") for line in stdout.split()]
            outcome.expect(all(sum(int(p[i]) for p in pairs) == 0 for i in (0, 1)),
                           "zigzag classes do not sum to 0")
        if choice.sub == "matchings" and proc.returncode == 0:
            det = self.reference["cli"][f"kasteleyn {choice.entry} --gauge paper"]["text"]
            outcome.expect(int(stdout) == oracles.abs_coeff_sum(oracles.parse_laurent(det)),
                           "matching count != sum |coefficients|")
        # The reference holds only expected refusals (``record.py``).
        outcome.refusals = int(ref["exit"] == 1)
        outcome.counts = {"mutation.refusals": outcome.refusals,
                          "io.input_bytes": len(spec.text or "")}
        if getattr(spec, "replayed", None) is not None:
            outcome.expect(spec.replayed == (proc.returncode, stdout),
                           "in-process replay differs from the child's output")
        return outcome


def make(name: str, reference: dict, workdir):
    if name == "cli-mix":
        return CliMix(reference, workdir)
    return {"cover-analysis": CoverAnalysis, "partition": Partition}[name](reference)
