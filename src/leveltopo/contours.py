"""Isocontour extraction and path-component classification on 2-d fields.

Marching squares with the standard 16-case table: every crossing vertex is
computed once per grid edge and referenced by both adjacent cells, so
segment endpoints are shared exactly and components can be linked by vertex
identity with no coordinate tolerance.  Saddle cells (two opposite corners
above the level) are disambiguated by the cell-center average.  Each linked
component is classified Bounded or BoundaryTouching by distance to the
window frame; "unbounded" is never decidable from a finite window, so
BoundaryTouching is evidence, to be strengthened by window escalation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, region_components
from .network import Window

# corner values exactly at the level are shifted by this fraction of the
# value range, which removes the degenerate table cases
LEVEL_NUDGE = 1e-12
# a component is boundary-touching when it gets this close to the frame,
# in units of the cell diagonal
BOUNDARY_TOL_CELLS = 1.5


class Classification(enum.Enum):
    BOUNDED = "bounded"
    BOUNDARY_TOUCHING = "boundary_touching"


@dataclass(frozen=True)
class SegmentSoup:
    """Raw marching-squares output for one level of ``field``.

    ``segments`` holds index pairs into ``vertices``; ``segment_cells`` maps
    each segment to the (i, j) grid cell that produced it.
    """

    level: float
    field: ScalarField
    vertices: np.ndarray       # (V, 2) float
    segments: np.ndarray       # (S, 2) int
    segment_cells: np.ndarray  # (S, 2) int


def marching_squares(field: ScalarField, level: float) -> SegmentSoup:
    """Extract the level-``level`` isocontour of a 2-d field as line segments."""
    if field.values.ndim != 2:
        raise ValueError("marching squares requires a 2-d field")
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    v = field.values
    lo_val, hi_val = field.value_range()
    nudged = np.where(v == level, level + LEVEL_NUDGE * (hi_val - lo_val), v)
    inside = nudged > level

    xs = field.axis(0)
    ys = field.axis(1)

    cross_h = inside[:-1, :] != inside[1:, :]   # edge (i,j)-(i+1,j)
    cross_v = inside[:, :-1] != inside[:, 1:]   # edge (i,j)-(i,j+1)

    vertices: list[tuple[float, float]] = []
    h_id = np.full(cross_h.shape, -1, dtype=np.int64)
    v_id = np.full(cross_v.shape, -1, dtype=np.int64)

    for i, j in np.argwhere(cross_h):
        t = (level - nudged[i, j]) / (nudged[i + 1, j] - nudged[i, j])
        h_id[i, j] = len(vertices)
        vertices.append((xs[i] + t * (xs[i + 1] - xs[i]), ys[j]))
    for i, j in np.argwhere(cross_v):
        t = (level - nudged[i, j]) / (nudged[i, j + 1] - nudged[i, j])
        v_id[i, j] = len(vertices)
        vertices.append((xs[i], ys[j] + t * (ys[j + 1] - ys[j])))

    segments: list[tuple[int, int]] = []
    cells: list[tuple[int, int]] = []
    active = (cross_h[:, :-1] | cross_h[:, 1:] | cross_v[:-1, :] | cross_v[1:, :])
    for i, j in np.argwhere(active):
        crossed = []
        if cross_h[i, j]:
            crossed.append(h_id[i, j])        # bottom
        if cross_v[i + 1, j]:
            crossed.append(v_id[i + 1, j])    # right
        if cross_h[i, j + 1]:
            crossed.append(h_id[i, j + 1])    # top
        if cross_v[i, j]:
            crossed.append(v_id[i, j])        # left
        if len(crossed) == 2:
            segments.append((crossed[0], crossed[1]))
            cells.append((i, j))
        else:  # saddle: both diagonals inside; split by the center average
            vb, vr, vt, vl = h_id[i, j], v_id[i + 1, j], h_id[i, j + 1], v_id[i, j]
            center_inside = (nudged[i, j] + nudged[i + 1, j]
                             + nudged[i + 1, j + 1] + nudged[i, j + 1]) / 4.0 > level
            if inside[i, j] == center_inside:
                pairs = ((vb, vr), (vt, vl))
            else:
                pairs = ((vl, vb), (vr, vt))
            segments.extend(pairs)
            cells.extend(((i, j), (i, j)))

    return SegmentSoup(float(level), field,
                       np.asarray(vertices, dtype=np.float64).reshape(-1, 2),
                       np.asarray(segments, dtype=np.int64).reshape(-1, 2),
                       np.asarray(cells, dtype=np.int64).reshape(-1, 2))


@dataclass(frozen=True)
class LevelComponent:
    """One path component of an isocontour.

    ``polylines`` holds vertex chains; a closed loop repeats its first vertex
    at the end.  ``crosses_window_edge_cells`` records whether any producing
    cell sits on the window frame (used by the band-region oracle, whose
    boundary flag is cell-based).
    """

    polylines: tuple[np.ndarray, ...]
    classification: Classification
    level: float
    length: float
    crosses_window_edge_cells: bool
    cells: np.ndarray  # (k, 2) grid cells that produced the segments

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "level": self.level,
            "length": self.length,
            "crosses_window_edge_cells": self.crosses_window_edge_cells,
            "polylines": [chain.tolist() for chain in self.polylines],
        }


def classify_component(chains, window: Window, boundary_tol: float) -> Classification:
    """BoundaryTouching iff any vertex is within ``boundary_tol`` of the frame."""
    for chain in chains:
        if float(window.boundary_distance(np.asarray(chain)).min()) <= boundary_tol:
            return Classification.BOUNDARY_TOUCHING
    return Classification.BOUNDED


def link_components(soup: SegmentSoup, boundary_tol: float | None = None) -> list[LevelComponent]:
    """Group segments into path components by walking their shared vertices.

    Every interior crossing is referenced by exactly two cells and every
    crossing on the window frame by one, so vertex degrees are 2 or 1 and
    each component is a single open chain or closed loop.  A component
    starts at its lowest unused segment.  A loop is walked from that
    segment's first vertex along it; an open chain starts at the end with
    the lower segment index, or at the first vertex of a lone segment.
    """
    field = soup.field
    if boundary_tol is None:
        boundary_tol = BOUNDARY_TOL_CELLS * field.cell_diagonal
    segments = soup.segments.tolist()
    incident: list[list[int]] = [[] for _ in range(len(soup.vertices))]
    for sid, (a, b) in enumerate(segments):
        incident[a].append(sid)
        incident[b].append(sid)
    used = [False] * len(segments)

    def walk(vertex: int, seg_ids: list[int]) -> list[int]:
        """The vertices from ``vertex`` along unused segments, which it marks
        used and adds to ``seg_ids``, up to a chain end or back to ``vertex``."""
        path = [vertex]
        while (sid := next((s for s in incident[vertex] if not used[s]), None)) is not None:
            used[sid] = True
            seg_ids.append(sid)
            a, b = segments[sid]
            vertex = b if a == vertex else a
            path.append(vertex)
        return path

    nx, ny = field.resolution[0] - 1, field.resolution[1] - 1
    components = []
    for first, (start, _) in enumerate(segments):
        if used[first]:
            continue
        seg_ids: list[int] = []
        ahead = walk(start, seg_ids)  # leaves along ``first``, the lowest unused segment
        chain = walk(start, seg_ids)[::-1] + ahead[1:]
        if incident[chain[-1]][0] < incident[chain[0]][0]:
            chain.reverse()
        seg_ids.sort()

        polylines = (soup.vertices[chain],)
        length = float(sum(
            np.linalg.norm(soup.vertices[segments[s][0]] - soup.vertices[segments[s][1]])
            for s in seg_ids))
        cells = soup.segment_cells[seg_ids]
        on_frame = bool(np.any((cells[:, 0] == 0) | (cells[:, 0] == nx - 1)
                               | (cells[:, 1] == 0) | (cells[:, 1] == ny - 1)))
        components.append(LevelComponent(
            polylines,
            classify_component(polylines, field.window, boundary_tol),
            soup.level, length, on_frame, cells))
    # deterministic order: by the first vertex of the chain
    components.sort(key=lambda c: (round(c.polylines[0][0][0], 12),
                                   round(c.polylines[0][0][1], 12)))
    return components


def extract_components(field: ScalarField, level: float,
                       boundary_tol: float | None = None) -> list[LevelComponent]:
    return link_components(marching_squares(field, level), boundary_tol)


def component_encloses(component: LevelComponent, point) -> bool:
    """Even-odd ray-casting test: does the component wind around ``point``?"""
    px, py = float(point[0]), float(point[1])
    crossings = 0
    for chain in component.polylines:
        for (x0, y0), (x1, y1) in zip(chain[:-1], chain[1:]):
            if (y0 > py) != (y1 > py):
                x_at = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
                if x_at > px:
                    crossings += 1
    return crossings % 2 == 1


def band_oracle_compare(field: ScalarField, level: float, band_delta: float) -> dict:
    """Cross-check marching squares and vertex linking against the band flood fill.

    For a regular level, every contour component sits inside exactly one
    component of the band preimage (level - delta, level + delta), and that
    correspondence is a bijection onto the band components that straddle the
    level (band components that only graze the band without attaining the
    level belong to nearby levels leaving the window, so they have no contour
    to match).  The window-edge comparison uses the cell-based rule on both
    sides: contour enters a frame cell vs. band contains a frame cell.
    """
    comps = extract_components(field, level)
    regions = region_components(field, (level - band_delta, level + band_delta))
    straddling = {rc.label: rc for rc in regions.components if rc.straddles_mid}
    issues: list[str] = []
    used: set[int] = set()
    for ci, comp in enumerate(comps):
        labels = {int(regions.label_grid[i, j]) for i, j in comp.cells}
        if len(labels) != 1:
            issues.append(f"contour component {ci} spans band labels {sorted(labels)}")
            continue
        label = labels.pop()
        if label not in straddling:
            issues.append(f"contour component {ci} maps to non-straddling band label {label}")
            continue
        if label in used:
            issues.append(f"band component {label} matched by two contour components")
            continue
        used.add(label)
        if straddling[label].touches_boundary != comp.crosses_window_edge_cells:
            issues.append(
                f"boundary flag mismatch on component {ci}: contour frame cells "
                f"{comp.crosses_window_edge_cells}, band frame cells "
                f"{straddling[label].touches_boundary}")
    unmatched = sorted(set(straddling) - used)
    if unmatched:
        issues.append(f"band components without a contour: {unmatched}")
    return {
        "agree": not issues,
        "contour_count": len(comps),
        "band_count": len(straddling),
        "issues": issues,
    }


@dataclass(frozen=True)
class TopologyReport:
    """Per-level extraction result plus enough provenance to recompute it."""

    level: float
    window: Window
    resolution: tuple[int, int]
    boundary_tol: float
    components: tuple[LevelComponent, ...]
    provenance: dict

    @property
    def bounded_count(self) -> int:
        return sum(1 for c in self.components
                   if c.classification is Classification.BOUNDED)

    @property
    def boundary_count(self) -> int:
        return sum(1 for c in self.components
                   if c.classification is Classification.BOUNDARY_TOUCHING)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "window": self.window.to_dict(),
            "resolution": list(self.resolution),
            "boundary_tol": self.boundary_tol,
            "counts": {"bounded": self.bounded_count,
                       "boundary_touching": self.boundary_count},
            "components": [c.to_dict() for c in self.components],
            "provenance": self.provenance,
        }


def analyze_level(field: ScalarField, level: float, boundary_tol: float | None = None,
                  provenance: dict | None = None) -> TopologyReport:
    if boundary_tol is None:
        boundary_tol = BOUNDARY_TOL_CELLS * field.cell_diagonal
    comps = link_components(marching_squares(field, level), boundary_tol)
    return TopologyReport(float(level), field.window, field.resolution,
                          float(boundary_tol), tuple(comps), provenance or {})
