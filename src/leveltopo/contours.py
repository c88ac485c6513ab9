"""Isocontour extraction and path-component classification on 2-d fields.

Marching squares is whole-array work over the 16-case table of Lorensen and
Cline (1987, marching cubes, in two dimensions).  Every crossing vertex is
computed once per grid edge (crossed h-edges in row-major order, then
v-edges) and referenced by both adjacent cells, so segment endpoints are
shared exactly and components can be linked by vertex identity with no
coordinate tolerance.  An active cell lists its edge ids in the order
bottom, right, top, left: a plain cell joins its two crossed edges, a
saddle cell (two opposite corners above the level) emits two segments.
Which pair of corners a saddle cell joins follows its centre value: the
sampled function at the centre when the caller passes it, the average of
the four corners for a bare field.  The average reads a ridge along the
cell diagonal as a dip, and so closes false loops around single nodes.

Linking is pointer jumping over half-edges: each vertex has one or two
segments, so every component is a chain or a loop, its label is the lowest
segment reachable from either direction, and its walk order is the
distance to the walk's end once each loop is cut before its start.

A component is Bounded when every vertex clears the window frame by 1.5 cell
diagonals, and BoundaryTouching otherwise.  Degree-1 vertices lie only on
the frame, so an open chain always touches it and a Bounded component is a
closed loop of the sampled field.  "Unbounded" is never decidable from a
finite window, so BoundaryTouching is evidence, not proof.
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


def boundary_tol(window: Window, resolution) -> float:
    """How close to the frame of ``window``, sampled at ``resolution`` nodes
    per axis, a component may come and still be bounded."""
    spacing = window.extent / (np.asarray(resolution) - 1)
    return BOUNDARY_TOL_CELLS * float(np.linalg.norm(spacing))


class Classification(enum.Enum):
    BOUNDED = "bounded"
    BOUNDARY_TOUCHING = "boundary_touching"


@dataclass(frozen=True)
class SegmentSoup:
    """Raw marching-squares output for one level of a field.

    ``segments`` holds index pairs into ``vertices``; ``segment_cells`` maps
    each segment to the (i, j) grid cell that produced it.
    """

    vertices: np.ndarray       # (V, 2) float
    segments: np.ndarray       # (S, 2) int
    segment_cells: np.ndarray  # (S, 2) int


def marching_squares(field: ScalarField, level: float, f=None) -> SegmentSoup:
    """Extract the level-``level`` isocontour of a 2-d field as line segments.

    ``f``, when given, is the function the field samples: each saddle cell
    is then split by the value of ``f`` at its centre, evaluated in one call
    for all saddle cells of the level.  Without it the centre value is the
    average of the four corners.
    """
    if field.values.ndim != 2:
        raise ValueError("marching squares requires a 2-d field")
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    values = field.values
    at_level = values == level
    if at_level.any():
        lo_val, hi_val = field.value_range()
        values = np.where(at_level, level + LEVEL_NUDGE * (hi_val - lo_val), values)
    inside = values > level

    cross_h = inside[:-1, :] != inside[1:, :]   # edge (i,j)-(i+1,j)
    cross_v = inside[:, :-1] != inside[:, 1:]   # edge (i,j)-(i,j+1)
    # flat indices: np.nonzero of a 2-d mask costs ten times as much
    h_flat = np.flatnonzero(cross_h)
    v_flat = np.flatnonzero(cross_v)
    n_h, n_v = len(h_flat), len(v_flat)

    # vertex ids: crossed h-edges in row-major order, then crossed v-edges
    xs = field.axis(0)
    ys = field.axis(1)
    vertices = np.empty((n_h + n_v, 2))
    i, j = np.divmod(h_flat, cross_h.shape[1])
    t = (level - values[i, j]) / (values[i + 1, j] - values[i, j])
    vertices[:n_h, 0] = xs[i] + t * (xs[i + 1] - xs[i])
    vertices[:n_h, 1] = ys[j]
    i, j = np.divmod(v_flat, cross_v.shape[1])
    t = (level - values[i, j]) / (values[i, j + 1] - values[i, j])
    vertices[n_h:, 0] = xs[i]
    vertices[n_h:, 1] = ys[j] + t * (ys[j + 1] - ys[j])
    h_id = np.full(cross_h.shape, -1, dtype=np.int64)
    h_id.ravel()[h_flat] = np.arange(n_h)
    v_id = np.full(cross_v.shape, -1, dtype=np.int64)
    v_id.ravel()[v_flat] = np.arange(n_h, n_h + n_v)

    # case table: the active cells' edge ids in the order bottom, right, top,
    # left, -1 where the edge is not crossed; a plain cell crosses two edges
    # and joins them in that order, a saddle cell crosses all four
    active = cross_h[:, :-1] | cross_h[:, 1:] | cross_v[:-1, :] | cross_v[1:, :]
    ci, cj = np.divmod(np.flatnonzero(active), active.shape[1])
    edges = np.stack((h_id[ci, cj], v_id[ci + 1, cj], h_id[ci, cj + 1], v_id[ci, cj]), axis=1)
    saddle = edges.min(axis=1) >= 0
    pairs = np.empty((len(ci), 2, 2), dtype=np.int64)
    plain = edges[~saddle]
    pairs[~saddle, 0] = plain[plain >= 0].reshape(-1, 2)
    if saddle.any():
        si, sj = ci[saddle], cj[saddle]
        if f is None:
            centre = (values[si, sj] + values[si + 1, sj]
                      + values[si + 1, sj + 1] + values[si, sj + 1]) / 4.0
        else:
            points = np.column_stack((0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1])))
            centre = np.asarray(f(points), dtype=np.float64).reshape(len(si))
        # the corner (i, j) and the centre on one side: split off the corners
        # (i+1, j) and (i, j+1); otherwise split off (i, j) and (i+1, j+1)
        bottom, right, top, left = edges[saddle].T
        same = (inside[si, sj] == (centre > level))[:, None]
        pairs[saddle, 0] = np.where(same, np.column_stack((bottom, right)),
                                    np.column_stack((left, bottom)))
        pairs[saddle, 1] = np.where(same, np.column_stack((top, left)),
                                    np.column_stack((right, top)))

    # one or two segments per cell, in cell order
    emit = np.column_stack((np.ones(len(ci), dtype=bool), saddle))
    return SegmentSoup(vertices, pairs[emit],
                       np.repeat(np.column_stack((ci, cj)), 1 + saddle, axis=0))


@dataclass(frozen=True)
class LevelComponent:
    """One path component of an isocontour.

    ``chain`` is its vertex chain; a closed loop repeats its first vertex at
    the end.  ``cells`` are the grid cells that produced its segments.
    """

    chain: np.ndarray  # (k, 2) vertices
    cells: np.ndarray  # (k, 2) grid cells that produced the segments


def classify_component(chain, window: Window, boundary_tol: float) -> Classification:
    """BoundaryTouching iff any vertex of ``chain`` is within ``boundary_tol`` of the frame."""
    if float(window.boundary_distance(np.asarray(chain)).min()) <= boundary_tol:
        return Classification.BOUNDARY_TOUCHING
    return Classification.BOUNDED


def link_components(soup: SegmentSoup) -> list[LevelComponent]:
    """Group segments into path components by pointer jumping over half-edges.

    Every interior crossing is referenced by exactly two cells and every
    crossing on the window frame by one, so vertex degrees are 2 or 1 and
    each component is a single open chain or closed loop.  Half-edge
    ``2s + d`` runs along segment ``s`` from ``segments[s][d]`` to the other
    end, and its successor leaves that end along the vertex's other segment.
    A loop is walked from its lowest segment's first vertex along that
    segment; an open chain starts at the end whose end segment has the lower
    index, and a lone segment runs from its first vertex.
    """
    n_seg = len(soup.segments)
    if n_seg == 0:
        return []
    half = np.arange(2 * n_seg)
    tail = soup.segments.ravel()  # half-edge h leaves vertex tail[h], enters tail[h ^ 1]
    by_vertex = np.argsort(tail, kind="stable")  # incident half-edges, in segment order
    shared = tail[by_vertex[:-1]] == tail[by_vertex[1:]]
    partner = np.full(2 * n_seg, -1)  # the other half-edge leaving the same vertex
    partner[by_vertex[:-1][shared]] = by_vertex[1:][shared]
    partner[by_vertex[1:][shared]] = by_vertex[:-1][shared]
    succ = partner[half ^ 1]
    succ = np.where(succ < 0, half, succ)  # a half-edge into a frame vertex points to itself

    # round k looks 2^k half-edges ahead.  A walk in one direction meets each
    # segment at most once, so 2^rounds >= S covers every chain and loop from
    # any of its half-edges; a loop never reaches a fixed point, so the count
    # is fixed rather than run until nothing changes
    rounds = (n_seg - 1).bit_length()
    label, nxt = half // 2, succ
    for _ in range(rounds):
        label, nxt = np.minimum(label, label[nxt]), nxt[nxt]
    label = np.minimum(label[0::2], label[1::2])  # the lowest segment of each component
    root = label == np.arange(n_seg)
    comp = (np.cumsum(root) - 1)[label]  # components in order of their lowest segment
    sizes = np.bincount(comp)
    offsets = np.cumsum(sizes) - sizes

    # start half-edges: a loop leaves along its lowest segment; of the two
    # half-edges leaving a chain's ends, the lower one starts the walk
    start = 2 * np.flatnonzero(root)
    free = np.flatnonzero(partner < 0)
    free = free[np.argsort(comp[free // 2], kind="stable")][0::2]
    open_comp = comp[free // 2]
    start[open_comp] = free
    cut = partner[np.delete(start, open_comp)] ^ 1  # the half-edge entering a loop's start
    succ[cut] = cut

    rank, nxt = (succ != half).astype(np.int64), succ
    for _ in range(rounds):
        rank, nxt = rank + rank[nxt], nxt[nxt]  # steps to the end of the walk
    # the half-edges that end where the start's walk ends, one per segment
    fwd = np.flatnonzero(nxt == nxt[start[comp[half // 2]]])
    last = offsets + sizes
    walk = np.empty(n_seg, dtype=np.int64)
    walk[last[comp[fwd // 2]] - 1 - rank[fwd]] = fwd

    # each component's vertex chain: its half-edges' tails, then the last head
    n_comp = len(sizes)
    path = np.empty(n_seg + n_comp, dtype=np.int64)
    path[np.arange(n_seg) + np.repeat(np.arange(n_comp), sizes)] = tail[walk]
    path[last + np.arange(n_comp)] = tail[walk[last - 1] ^ 1]
    points = soup.vertices[path]

    by_comp = np.argsort(comp, kind="stable")  # ascending segment ids per component
    cells = soup.segment_cells[by_comp]
    components = [LevelComponent(points[s0 + k:s1 + k + 1], cells[s0:s1])
                  for k, (s0, s1) in enumerate(zip(offsets.tolist(), last.tolist()))]
    # deterministic order: by the first vertex of the chain
    components.sort(key=lambda c: (round(c.chain[0][0], 12), round(c.chain[0][1], 12)))
    return components


def extract_components(field: ScalarField, level: float, f=None) -> list[LevelComponent]:
    return link_components(marching_squares(field, level, f))


def component_encloses(chain, point) -> bool:
    """Even-odd ray-casting test: does the vertex chain of a component wind
    around ``point``?"""
    px, py = float(point[0]), float(point[1])
    x0, y0 = chain[:-1].T
    x1, y1 = chain[1:].T
    s = (y0 > py) != (y1 > py)  # edges that straddle the ray's line
    x0, y0, x1, y1 = x0[s], y0[s], x1[s], y1[s]
    return int(np.count_nonzero(x0 + (py - y0) * (x1 - x0) / (y1 - y0) > px)) % 2 == 1


def _in_frame_cells(cells: np.ndarray, resolution) -> bool:
    """Does any of ``cells`` lie in the outer ring of cells of a grid with
    ``resolution`` nodes per axis?"""
    return bool(np.any((cells == 0) | (cells == np.asarray(resolution) - 2)))


def band_oracle_compare(field: ScalarField, level: float, band_delta: float) -> dict:
    """Cross-check marching squares and pointer-jumping linking against the band components.

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
        labels = np.unique(regions.label_grid[comp.cells[:, 0], comp.cells[:, 1]]).tolist()
        if len(labels) != 1:
            issues.append(f"contour component {ci} spans band labels {labels}")
            continue
        label = labels[0]
        if label not in straddling:
            issues.append(f"contour component {ci} maps to non-straddling band label {label}")
            continue
        if label in used:
            issues.append(f"band component {label} matched by two contour components")
            continue
        used.add(label)
        on_frame = _in_frame_cells(comp.cells, field.resolution)
        if straddling[label].touches_boundary != on_frame:
            issues.append(
                f"boundary flag mismatch on component {ci}: contour frame cells "
                f"{on_frame}, band frame cells "
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
