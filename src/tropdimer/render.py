"""Static SVG rendering of dimers on the fundamental domain.

Output is deterministic byte-for-byte: coordinates are exact rationals
formatted with a fixed precision, and element order follows storage order.
White polytopes are drawn hollow, black ones filled; graph edges are line
elements through their anchors; zigzag overlays are polyline groups.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Vec2

SCALE = 240
MARGIN = 24

LAYERS = ("edges", "zigzags")  # the overlays ``render_dimer`` can draw

ZIGZAG_COLORS = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def _fmt(q) -> str:
    return f"{float(q):.3f}"


def _xy(x: int, y: int, den: int):
    """Screen coordinates of the exact torus point (x/den, y/den)."""
    # int true division rounds correctly, so the floats are those of the
    # exact rationals; y is flipped so the lattice y-axis points up on screen
    try:
        sx, sy = (MARGIN * den + x * SCALE) / den, ((MARGIN + SCALE) * den - y * SCALE) / den
    except OverflowError:  # past the float range: no SVG number can hold it
        raise ValueError("coordinates too large to draw") from None
    return f"{sx:.3f}", f"{sy:.3f}"


def render_dimer(dimer: DualDimer, show=()) -> str:
    """SVG text; ``show`` may contain "edges" and "zigzags".

    The picture depends only on the dimer on the torus, not on the stored
    lifts: polygons are drawn at their canonical lifts, each edge from the
    centroid of its white polygon's canonical lift to the point the edge's
    displacement away, and each zigzag as one continuous walk from its
    start point reduced to the fundamental domain.
    """
    from .dimer import BLACK, build_graph, fundamental_lift, validate, zigzag_paths

    size = SCALE + 2 * MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SCALE}" height="{SCALE}" '
        'fill="none" stroke="#cccccc" stroke-dasharray="4 4"/>',
    ]
    n = dimer.denominator
    lifts = [fundamental_lift(p.vertices, n) for p in dimer.polytopes]
    for p, lifted in zip(dimer.polytopes, lifts):
        points = " ".join(",".join(_xy(x, y, n)) for x, y in lifted)
        if p.color == BLACK:
            style = 'fill="#222222" stroke="#222222"'
        else:
            style = 'fill="none" stroke="#222222"'
        out.append(f'<polygon points="{points}" {style} stroke-width="1.5"/>')

    if ("edges" in show or "zigzags" in show) and validate(dimer).ok:
        if "edges" in show:
            graph = build_graph(dimer)
            d = graph.denominator
            centroids = {}  # white polytope -> its lift's centroid over D
            for i in graph.whites:
                k = d // (n * len(lifts[i]))
                centroids[i] = k * sum(x for x, _ in lifts[i]), k * sum(y for _, y in lifts[i])
            for e in graph.edges:
                # the black centroid is the edge's displacement away
                (cx, cy), (dx, dy) = centroids[e.white], e.displacement
                x1, y1 = _xy(cx, cy, d)
                x2, y2 = _xy(cx + dx, cy + dy, d)
                out.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    'stroke="#888888" stroke-width="0.8"/>'
                )
        if "zigzags" in show:
            for k, path in enumerate(zigzag_paths(dimer)):
                color = ZIGZAG_COLORS[k % len(ZIGZAG_COLORS)]
                x, y = path.steps[0].start
                x, y = x % n, y % n
                pts = [_xy(x, y, n)]
                for step in path.steps:
                    dx, dy = step.displacement
                    x, y = x + dx, y + dy
                    pts.append(_xy(x, y, n))
                points = " ".join(",".join(p) for p in pts)
                out.append(f'<g class="zigzag" stroke="{color}" fill="none">')
                out.append(f'<polyline points="{points}" stroke-width="2"/>')
                out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_diagram(diagram) -> str:
    """SVG of a base diagram: boundary, nodes as crosses, cut segments."""
    if diagram.boundary is not None:
        xs = [v.x for v in diagram.boundary.vertices]
        ys = [v.y for v in diagram.boundary.vertices]
    else:
        xs = [n.position.x for n in diagram.nodes] or [Fraction(0)]
        ys = [n.position.y for n in diagram.nodes] or [Fraction(0)]
    lo = Vec2(min(xs) - 1, min(ys) - 1)
    hi = Vec2(max(xs) + 1, max(ys) + 1)
    span = max(hi.x - lo.x, hi.y - lo.y)
    unit = Fraction(SCALE) / span

    def pt(p: Vec2):
        return _fmt(MARGIN + (p.x - lo.x) * unit), _fmt(MARGIN + (hi.y - p.y) * unit)

    size = SCALE + 2 * MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    if diagram.boundary is not None:
        points = " ".join(",".join(pt(v)) for v in diagram.boundary.vertices)
        out.append(f'<polygon points="{points}" fill="none" stroke="#222222" stroke-width="1.5"/>')
    for node in diagram.nodes:  # the cut: the eigenray from the node
        x1, y1 = pt(node.position)
        x2, y2 = pt(node.position + node.eigenray.scale(Fraction(3, 2)))
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="#c0392b" stroke-width="1" stroke-dasharray="3 3"/>'
        )
    for node in diagram.nodes:
        cx, cy = pt(node.position)
        out.append(
            f'<text x="{cx}" y="{cy}" font-size="14" text-anchor="middle" '
            f'dominant-baseline="middle">×</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
