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
from .fields import network_scalar_fn, sample_grid
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


def render_topology_svg(window: Window, components: list[dict], level: float, field_fn,
                        points: np.ndarray | None = None, labels: np.ndarray | None = None,
                        deterministic: bool = False, title: str = "") -> str:
    """Compose the SVG document.  ``components`` are report component entries
    (``classification`` and ``polylines``, as ``level_entry`` writes them).
    ``field_fn`` (points -> values) drives the sign-region fill; the data
    ``points`` and their ``labels`` are drawn when given."""
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
    ]
    if title:
        parts.append(f'<title>{title}</title>')
    parts.append(f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>')

    res = FILL_RESOLUTION
    fld = sample_grid(field_fn, window, (res, res))
    centers = 0.25 * (fld.values[:-1, :-1] + fld.values[1:, :-1]
                      + fld.values[:-1, 1:] + fld.values[1:, 1:])
    xs, ys = fld.axis(0), fld.axis(1)
    parts.append('<g shape-rendering="crispEdges">')
    for i in range(res - 1):
        for j in range(res - 1):
            color = COLOR_ABOVE if centers[i, j] >= level else COLOR_BELOW
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
    for comp in components:
        color = (COLOR_BOUNDED if comp["classification"] == Classification.BOUNDED.value
                 else COLOR_TOUCHING)
        for chain in comp["polylines"]:
            pts = " ".join(f"{_fmt(sx)},{_fmt(sy)}"
                           for sx, sy in (t(float(p[0]), float(p[1])) for p in chain))
            parts.append(f'<polyline points="{pts}" stroke="{color}"/>')
    parts.append("</g>")

    x0, y0 = t(window.lo[0], window.hi[1])
    x1, y1 = t(window.hi[0], window.lo[1])
    parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                 f'height="{_fmt(y1 - y0)}" fill="none" stroke="#444" stroke-width="1"/>')
    parts.append(f'<text x="{MARGIN}" y="{MARGIN - 12}" font-family="monospace" '
                 f'font-size="13">level={level:g} bounded=red touching=blue</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def outcome_svg(outcome: dict, deterministic: bool) -> str:
    """The plot of a report outcome's first level, from the report alone: the
    stored chains over the sign regions of the stored network."""
    entry = outcome["levels"][0]["report"]
    return render_topology_svg(
        Window(**entry["window"]), entry["components"], entry["level"],
        field_fn=network_scalar_fn(network_from_dict(outcome["network"])),
        deterministic=deterministic, title=f"seed {outcome['seed']}")
