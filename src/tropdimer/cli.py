"""Command-line surface.

Exit codes: 0 success, 1 domain failure (axiom violations, impossible
operations), 2 usage or parse failure (bad flags, malformed JSON, schema
violations).  Set TROPDIMER_COLOR=1 for ANSI-colored status lines.

Each subcommand imports only the modules it runs: the branch of `_run`
that needs a module, or the argument type that checks a value against it,
imports it.  Every CLI call is a fresh interpreter, which compiles each
module it imports whenever no bytecode cache is written, so an import at
module level here would make every subcommand compile all of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import catalog as cat


def _color(text: str, code: str) -> str:
    if os.environ.get("TROPDIMER_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _load_input(source: str):
    """(DualDimer, weights) from `catalog:<name>` or a file path."""
    from .io import parse_dimer

    if source.startswith("catalog:"):
        text = cat.catalog_text(source.split(":", 1)[1])
    else:
        with open(source, "rb") as fh:
            text = fh.read().decode("utf-8")
    return parse_dimer(text)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _layers(text: str) -> tuple:
    """A `--show` value: comma-separated layers, each refused at parse time
    unless `render_dimer` draws it."""
    from .render import LAYERS

    layers = tuple(s for s in text.split(",") if s)
    for layer in layers:
        if layer not in LAYERS:
            choices = ",".join(LAYERS)
            raise argparse.ArgumentTypeError(f"unknown layer {layer!r} (choose from {choices})")
    return layers


def _source(text: str) -> str:
    """An input: a file path, or `catalog:<name>` with a name the catalog has."""
    name = text.removeprefix("catalog:")
    if name != text and name not in cat.NAMES:
        raise argparse.ArgumentTypeError(f"unknown catalog name {name!r}")
    return text


def _depth(text: str) -> Fraction:
    """A `--depth` value, refused at parse time unless `Fraction` reads it."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid depth {text!r}") from None


def _gauge_name(name: str) -> str:
    """A `--gauge` value, refused at parse time unless `make_gauge` knows it."""
    from .kasteleyn import gauge_seed

    try:
        gauge_seed(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


class _Show(argparse.Action):
    """`render --show`.  Its help lists `render.LAYERS` and is read only when
    it is printed, so that building the parser does not import `render`."""

    @property
    def help(self) -> str:
        from .render import LAYERS

        return "comma-separated layers: " + ",".join(LAYERS)

    @help.setter
    def help(self, value):
        pass  # `Action.__init__` assigns `help=None`; the getter above answers

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tropdimer")
    sub = top.add_subparsers(dest="command", required=True)

    for name in ("validate", "graph", "zigzags", "fan", "euler", "directions", "matchings"):
        p = sub.add_parser(name)
        p.add_argument("input", type=_source)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("kasteleyn")
    p.add_argument("input", type=_source)
    p.add_argument("--gauge", default="paper", type=_gauge_name)

    p = sub.add_parser("mutate")
    p.add_argument("input", type=_source)
    p.add_argument("--face", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("compare-seed")
    p.add_argument("input", type=_source)
    p.add_argument("fan", choices=sorted(cat.DEL_PEZZO_FANS))

    p = sub.add_parser("genus")
    p.add_argument("degree", type=int)

    p = sub.add_parser("render")
    p.add_argument("input", type=_source)
    p.add_argument("--show", default=(), type=_layers, action=_Show)
    p.add_argument("--out")

    p = sub.add_parser("catalog")
    p.add_argument("name", nargs="?", choices=cat.NAMES)

    p = sub.add_parser("atf")
    atf = p.add_subparsers(dest="atf_command", required=True)
    q = atf.add_parser("trade")
    q.add_argument("surface", choices=sorted(cat.MOMENT_POLYGONS))
    q.add_argument("--corner", type=int, default=None, help="default: trade every corner")
    q.add_argument("--out")
    q.add_argument("--render", action="store_true")
    for name in ("inner", "outer"):
        q = atf.add_parser(name)
        q.add_argument("surface", choices=sorted(cat.MOMENT_POLYGONS))
        if name == "outer":
            q.add_argument("--depth", default=Fraction(1, 2), type=_depth)
    q = atf.add_parser("exchange")
    q.add_argument("surface", choices=sorted(cat.MOMENT_POLYGONS) + ["local"])
    q = atf.add_parser("an")
    q.add_argument("n", type=int)

    return top


def _report(args, data, lines) -> int:
    """Print ``data`` as one JSON line under `--json`, else each of ``lines``."""
    if args.json:
        print(json.dumps(data))
    else:
        for line in lines:
            print(line)
    return 0


def _curve_summary(label, curve, diagram):
    from .almost_toric import admissible
    from .tropical import check_balancing

    lines = [
        f"{label}: {len(curve.curve.vertices)} vertices, "
        f"{len(curve.curve.edges)} edges, {len(curve.attachments)} attachments",
        f"admissible: {str(admissible(curve, diagram)).lower()}",
        f"balanced: {str(check_balancing(curve.curve)).lower()}",
    ]
    return "\n".join(lines) + "\n"


def _run_atf(args) -> int:
    from .almost_toric import (
        BaseDiagram,
        an_chain_curve,
        build_inner_torus,
        build_outer_torus,
        local_model,
        nodal_trade,
        nodal_trade_exchange,
        serialize_diagram,
        trade_all_corners,
    )

    if args.atf_command == "trade":
        diagram = BaseDiagram(cat.MOMENT_POLYGONS[args.surface])
        if args.corner is None:
            diagram = trade_all_corners(diagram)
        else:
            diagram = nodal_trade(diagram, args.corner)
        if args.render:
            from .render import render_diagram as show
        else:
            show = serialize_diagram
        _emit(show(diagram), args.out)
        return 0
    if args.atf_command in ("inner", "outer"):
        diagram = trade_all_corners(BaseDiagram(cat.MOMENT_POLYGONS[args.surface]))
        if args.atf_command == "inner":
            curve = build_inner_torus(diagram)
        else:
            curve = build_outer_torus(diagram, args.depth)
        sys.stdout.write(_curve_summary(f"{args.atf_command} torus", curve, diagram))
        return 0
    if args.atf_command == "exchange":
        if args.surface == "local":
            diagram, curve = local_model()
            curve = nodal_trade_exchange(diagram, curve, 0)
        else:
            diagram = trade_all_corners(BaseDiagram(cat.MOMENT_POLYGONS[args.surface]))
            curve = build_outer_torus(diagram, Fraction(1, 2))
            for i in range(len(diagram.nodes)):
                curve = nodal_trade_exchange(diagram, curve, i)
        sys.stdout.write(_curve_summary("exchanged curve", curve, diagram))
        return 0
    if args.atf_command == "an":
        diagram, curve = an_chain_curve(args.n)
        sys.stdout.write(_curve_summary(f"A{args.n} chain", curve, diagram))
        return 0


def _run(args) -> int:
    if args.command == "genus":
        from .tropical import genus_degree

        print(genus_degree(args.degree))
        return 0
    if args.command == "catalog":
        if args.name is None:
            for name in cat.NAMES:
                print(name)
            return 0
        sys.stdout.write(cat.catalog_text(args.name))
        return 0
    if args.command == "atf":
        return _run_atf(args)

    from .dimer import (
        build_graph,
        dimer_to_tropical_fan,
        faces,
        unknown_weight_keys,
        validate,
        zigzag_paths,
    )

    dimer, weights = _load_input(args.input)

    if args.command == "validate":
        report = validate(dimer)
        unknown = unknown_weight_keys(build_graph(dimer), weights) if report.ok else []
        ok = report.ok and not unknown
        if args.json:
            print(json.dumps({
                "ok": ok,
                "immersed": report.self_intersecting,
            }))
        elif ok:
            print(_color("ok", "32") + (" (immersed)" if report.self_intersecting else ""))
        elif unknown:
            print(_color(f"weight for unknown edge {unknown[0]}", "31"))
        else:
            for line in report.lines():
                print(_color(line, "31"))
        return 0 if ok else 1

    if args.command == "graph":
        graph = build_graph(dimer)
        ids = [e.edge_id for e in graph.edges]
        head = f"{len(graph.whites)} white, {len(graph.blacks)} black, {len(ids)} edges"
        data = {"whites": len(graph.whites), "blacks": len(graph.blacks), "edges": ids}
        return _report(args, data, [head] + [f"  {i}" for i in ids])

    if args.command == "zigzags":
        classes = [(p.cls.a, p.cls.b) for p in zigzag_paths(dimer)]
        return _report(args, classes, [f"<{a},{b}>" for a, b in classes])

    if args.command == "fan":
        fan = dimer_to_tropical_fan(dimer)
        rays = [((int(e.ray.x), int(e.ray.y)), e.multiplicity) for e in fan.edges]
        return _report(args, rays, [f"({x},{y}) x{m}" for (x, y), m in rays])

    if args.command == "kasteleyn":
        from .kasteleyn import determinant, format_laurent, kasteleyn_matrix, make_gauge

        graph = build_graph(dimer)
        gauge = make_gauge(graph, args.gauge)
        print(format_laurent(determinant(kasteleyn_matrix(dimer, gauge))))
        return 0

    if args.command == "matchings":
        from .kasteleyn import determinant, enumerate_matchings, kasteleyn_matrix

        graph = build_graph(dimer)
        if args.json or validate(dimer).self_intersecting:
            found = enumerate_matchings(graph)
            return _report(args, found, [len(found)])
        # on an embedded dimer the Kasteleyn signs give all the matchings of one
        # homology class, one monomial, the same sign, so no two cancel
        print(sum(abs(c) for _, c in determinant(kasteleyn_matrix(dimer)).terms))
        return 0

    if args.command == "mutate":
        from .io import serialize_dimer
        from .mutation import exact_assignment, mutate_face

        all_faces = faces(dimer)
        if not (0 <= args.face < len(all_faces)):
            raise ValueError("face not found")
        if not weights:
            weights = exact_assignment(dimer)
        result = mutate_face(dimer, all_faces[args.face], weights)
        _emit(serialize_dimer(result.dimer), args.out)
        print(f"immersed: {str(result.immersed).lower()}")
        return 0

    if args.command == "euler":
        from .mutation import euler_characteristic

        value = euler_characteristic(dimer)
        return _report(args, {"euler": value}, [value])

    if args.command == "directions":
        from .mutation import mutation_directions

        dirs = [(c.a, c.b) for c in mutation_directions(dimer)]
        return _report(args, dirs, [f"<{a},{b}>" for a, b in dirs])

    if args.command == "compare-seed":
        from .mutation import compare_up_to_unimodular, mutation_directions, seed_directions

        want = seed_directions(cat.DEL_PEZZO_FANS[args.fan])
        got = mutation_directions(dimer)
        m = compare_up_to_unimodular(want, got)
        if m is None:
            print("no unimodular map")
            return 1
        print(f"[[{m.a},{m.b}],[{m.c},{m.d}]]")
        return 0

    if args.command == "render":
        from .render import render_dimer

        _emit(render_dimer(dimer, args.show), args.out)
        return 0


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return _run(args)
    except json.JSONDecodeError as exc:
        print(
            _color(f"error: malformed JSON at line {exc.lineno} column {exc.colno}", "31"),
            file=sys.stderr,
        )
        return 2
    except (UnicodeDecodeError, OSError) as exc:
        print(_color(f"error: {exc}", "31"), file=sys.stderr)
        return 2
    except ValueError as exc:
        # only a loaded `io` can have raised its SchemaError
        io = sys.modules.get(f"{__package__}.io")
        print(_color(f"error: {exc}", "31"), file=sys.stderr)
        return 2 if io is not None and isinstance(exc, io.SchemaError) else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
