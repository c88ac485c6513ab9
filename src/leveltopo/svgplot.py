"""Hand-rolled SVG 1.1 emission for decision-boundary plots.

No raster dependencies: the sign regions are coarse colored cells, the data
points are circles, and the extracted level components are polylines colored
by classification (red = bounded, blue = boundary-touching).  Output is
plain text, diffable, and byte-stable under the deterministic flag.
"""

from __future__ import annotations

import datetime

import numpy as np

from .contours import Classification
from .fields import cell_centres, network_scalar_fn
from .network import Window, network_from_dict

CANVAS = 640
MARGIN = 40
FILL_RESOLUTION = 65          # coarse sign-region grid (cells per axis + 1)
COLOR_ABOVE = "#fde5cf"       # f >= level
COLOR_BELOW = "#d6e6f7"       # f < level
COLOR_BOUNDED = "#d62728"
COLOR_TOUCHING = "#1f77b4"
COLOR_CLASS0 = "#3b6fb0"
COLOR_CLASS1 = "#e58a2e"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def outcome_svg(outcome: dict, deterministic: bool, title: str | None = None,
                points: np.ndarray | None = None, labels: np.ndarray | None = None) -> str:
    """The plot of a report outcome from the outcome alone: the stored chains of
    every level in the first level's window, each coloured by its level's
    ``final_classifications``, over the sign regions of the stored network at
    the first level only, each fill cell coloured by the network at its centre;
    the data ``points`` and ``labels`` when given; a legend naming every level;
    ``title`` or "seed N"."""
    from html import escape  # imported here, so that a process drawing no plot loads no html
    entry = outcome["levels"][0]["report"]
    window, level = Window(**entry["window"]), entry["level"]
    fn = network_scalar_fn(network_from_dict(outcome["network"]))
    title = f"seed {outcome['seed']}" if title is None else title
    scale = (CANVAS - 2 * MARGIN) / float(max(window.extent))

    def t(x: float, y: float) -> tuple[float, float]:
        """Window coordinates to SVG pixels; y axis flipped."""
        return (MARGIN + (x - window.lo[0]) * scale,
                CANVAS - MARGIN - (y - window.lo[1]) * scale)

    stamp = "1970-01-01T00:00:00Z" if deterministic else (
        datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS}" height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        f"<!-- generated {stamp} -->",
        "<!-- transform: sx = {m} + (x - {x0:g}) * {s:.6g}; "
        "sy = {c} - {m} - (y - {y0:g}) * {s:.6g} -->".format(
            m=MARGIN, c=CANVAS, x0=window.lo[0], y0=window.lo[1], s=scale),
        f"<title>{escape(title, quote=False)}</title>",
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
    ]

    cells = FILL_RESOLUTION - 1
    xs, ys = (np.linspace(window.lo[d], window.hi[d], cells + 1) for d in (0, 1))
    ci, cj = np.divmod(np.arange(cells * cells), cells)
    above = (fn(cell_centres(xs, ys, ci, cj)) >= level).reshape(cells, cells)
    parts.append('<g shape-rendering="crispEdges">')
    for i in range(cells):
        for j in range(cells):
            color = COLOR_ABOVE if above[i, j] else COLOR_BELOW
            x0, y0 = t(xs[i], ys[j + 1])
            w = (xs[i + 1] - xs[i]) * scale
            h = (ys[j + 1] - ys[j]) * scale
            parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" '
                         f'height="{_fmt(h)}" fill="{color}"/>')
    parts.append("</g>")

    if points is not None:
        parts.append('<g stroke="none" fill-opacity="0.8">')
        for (x, y), cls in zip(points, labels):
            sx, sy = t(float(x), float(y))
            if not (0 <= sx <= CANVAS and 0 <= sy <= CANVAS):
                continue
            color = COLOR_CLASS1 if cls == 1 else COLOR_CLASS0
            parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="1.5" fill="{color}"/>')
        parts.append("</g>")

    parts.append('<g fill="none" stroke-width="2">')
    for lv in outcome["levels"]:
        for cls, comp in zip(lv["final_classifications"], lv["report"]["components"]):
            color = COLOR_BOUNDED if cls == Classification.BOUNDED.value else COLOR_TOUCHING
            for chain in comp["polylines"]:
                pts = " ".join(f"{_fmt(sx)},{_fmt(sy)}"
                               for sx, sy in (t(float(p[0]), float(p[1])) for p in chain))
                parts.append(f'<polyline points="{pts}" stroke="{color}"/>')
    parts.append("</g>")

    x0, y0 = t(window.lo[0], window.hi[1])
    x1, y1 = t(window.hi[0], window.lo[1])
    parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                 f'height="{_fmt(y1 - y0)}" fill="none" stroke="#444" stroke-width="1"/>')
    levels = ",".join(f"{lv['level']:g}" for lv in outcome["levels"])
    parts.append(f'<text x="{MARGIN}" y="{MARGIN - 12}" font-family="monospace" '
                 f'font-size="13">level={levels} bounded=red touching=blue</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
