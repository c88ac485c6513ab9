"""Scalar fields on regular grids: sampling and band preimage regions.

``region_components`` labels the connected components of a preimage
f^-1((lo, hi)) at grid-cell granularity.  A cell belongs to the region when
its corner-value span meets the interval (for bilinear interpolation the
extrema over a cell sit at its corners, so this is exactly "the interpolated
field attains a value in the interval on this cell").  Labelling is
whole-array hooking and pointer jumping over the pairs of band cells that
share a face (Shiloach and Vishkin, 1982): every root is hooked onto the
lowest root it shares a pair with, then every cell jumps to its root, until
no pair joins two roots.  It shares no code with contour linking, and the
breadth-first fill it replaced is kept in ``tests/test_fields.py`` as the
reference it must match label for label.  The band components double as the
independent oracle for the marching-squares path: away from critical values,
a level-y contour has one component per band component of
(y - delta, y + delta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, Window, scalar_output


@dataclass(frozen=True)
class ScalarField:
    """Samples of a scalar function at the corner lattice of a window.

    ``values[i, j]`` is the sample at ``(axes[0][i], axes[1][j])``; 2-d and
    3-d grids are supported (contour extraction is 2-d only, region labeling
    handles both).
    """

    window: Window
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != self.window.dim or v.ndim not in (2, 3):
            raise ValueError(f"values must match the window dimension, got shape {v.shape} "
                             f"for a {self.window.dim}-d window")
        if any(r < 2 for r in v.shape):
            raise ValueError(f"need at least 2 samples per axis, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def spacing(self) -> np.ndarray:
        return self.window.extent / (np.array(self.resolution) - 1)

    def axis(self, d: int) -> np.ndarray:
        return np.linspace(self.window.lo[d], self.window.hi[d], self.resolution[d])

    def value_range(self) -> tuple[float, float]:
        return float(self.values.min()), float(self.values.max())


def sample_grid(f, window: Window, resolution: tuple[int, ...]) -> ScalarField:
    """Sample ``f`` at the corner lattice of ``window``.

    ``f`` takes a (m, dim) array of points and returns (m,) values; use
    ``network_scalar_fn`` to adapt a scalar-valued Network.  A non-finite
    sample aborts with the offending coordinates in the error message.
    """
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != window.dim or window.dim not in (2, 3):
        raise ValueError(f"resolution {resolution} does not match {window.dim}-d window")
    if any(r < 2 for r in resolution):
        raise ValueError(f"resolution must be >= 2 per axis, got {resolution}")
    points = window.lattice(resolution)
    raw = np.asarray(f(points), dtype=np.float64).reshape(points.shape[0])
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        where = points[bad[0]]
        raise ValueError(f"non-finite sample {raw[bad[0]]!r} at {tuple(where)}")
    return ScalarField(window, raw.reshape(resolution))


def network_scalar_fn(net: Network):
    """Adapter: scalar-valued network -> field evaluation callable."""
    return lambda points: scalar_output(net, points)


@dataclass(frozen=True)
class RegionComponent:
    label: int
    cell_count: int
    touches_boundary: bool
    # True when some cell of the component straddles the interval midpoint;
    # for a band (y - d, y + d) this distinguishes components that really
    # contain the level-y set from ones that only graze the band.
    straddles_mid: bool


@dataclass(frozen=True)
class RegionComponents:
    """Cell-level connected components of a band preimage.

    ``label_grid`` has one entry per grid cell (resolution minus one per
    axis); -1 marks cells outside the band.  Components use edge
    connectivity: 4 neighbors in 2-d, 6 in 3-d.
    """

    interval: tuple[float, float]
    label_grid: np.ndarray
    components: tuple[RegionComponent, ...]

    @property
    def count(self) -> int:
        return len(self.components)


def _cell_min_max(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min/max over the 2^dim corners of every cell."""
    lo = values
    hi = values
    for axis in range(values.ndim):
        sl_a = [slice(None)] * values.ndim
        sl_b = [slice(None)] * values.ndim
        sl_a[axis] = slice(None, -1)
        sl_b[axis] = slice(1, None)
        lo = np.minimum(lo[tuple(sl_a)], lo[tuple(sl_b)])
        hi = np.maximum(hi[tuple(sl_a)], hi[tuple(sl_b)])
    return lo, hi


def region_components(fld: ScalarField, interval: tuple[float, float]) -> RegionComponents:
    """Label the components of the cells on which the field meets ``interval``.

    A cell qualifies when its corner-value span intersects the open interval
    (lo, hi).  Components are numbered in the C order of their first cells
    (the order ``np.argwhere`` lists cells in).  Per component the result
    records the cell count, whether the component contains a window-edge
    cell, and whether it straddles the interval midpoint.
    """
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {interval}")
    cell_lo, cell_hi = _cell_min_max(fld.values)
    mask = (cell_lo < hi) & (cell_hi > lo)
    mid = 0.5 * (lo + hi)
    straddle_mask = (cell_lo < mid) & (cell_hi > mid)

    shape = mask.shape
    cells = np.flatnonzero(mask)
    n = cells.size
    index = np.full(shape, -1, dtype=np.int64)
    index.flat[cells] = np.arange(n)
    # pairs of band cells adjacent along one axis, as positions in ``cells``
    us, vs = [], []
    for axis in range(mask.ndim):
        along = np.moveaxis(index, axis, 0)
        a, b = along[:-1], along[1:]
        both = (a >= 0) & (b >= 0)
        us.append(a[both])
        vs.append(b[both])
    u = np.concatenate(us)
    v = np.concatenate(vs)

    # hook each root onto the lowest root it shares an edge with, then jump
    # every cell to its root; parents only decrease, so each component ends
    # as one star whose root is its lowest (first in C order) cell
    parent = np.arange(n)
    while True:
        ru = parent[u]
        rv = parent[v]
        apart = ru != rv
        if not apart.any():
            break
        ru = ru[apart]
        rv = rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped

    is_root = parent == np.arange(n)
    number = (np.cumsum(is_root) - 1)[parent]
    k = int(np.count_nonzero(is_root))
    labels = np.full(shape, -1, dtype=np.int64)
    labels.flat[cells] = number
    coords = np.unravel_index(cells, shape)
    on_frame = np.zeros(n, dtype=bool)
    for d, c in enumerate(coords):
        on_frame |= (c == 0) | (c == shape[d] - 1)
    cell_count = np.bincount(number, minlength=k)
    touches = np.bincount(number[on_frame], minlength=k) > 0
    straddles = np.bincount(number[straddle_mask.ravel()[cells]], minlength=k) > 0
    components = tuple(
        RegionComponent(label, count, touch, straddle)
        for label, (count, touch, straddle)
        in enumerate(zip(cell_count.tolist(), touches.tolist(), straddles.tolist())))
    return RegionComponents((lo, hi), labels, components)


def sample_noncritical_levels(fld: ScalarField, count: int, rng) -> np.ndarray:
    """Draw ``count`` probe levels away from (proxies of) critical values.

    Candidate critical values are the field values at grid nodes whose
    discrete gradient magnitude falls in the lowest 2 percent, plus the
    global extrema; near those, grid connectivity is unreliable at any
    finite resolution.  Levels are drawn uniformly between the 10th and 90th
    percentiles of the sampled values and rejected within 5e-3 of the value
    span of any candidate (five times the band width used by the contour
    oracle).
    """
    values = fld.values
    spacing = fld.spacing
    lo_v, hi_v = fld.value_range()
    exclusion = 5e-3 * (hi_v - lo_v)
    grads = np.gradient(values, *spacing)
    gmag = np.sqrt(sum(g * g for g in grads))
    flat = values[gmag <= np.percentile(gmag, 2.0)]
    critical = np.concatenate([flat.ravel(), [lo_v, hi_v]])
    p_lo, p_hi = np.percentile(values, [10.0, 90.0])
    levels = []
    attempts = 0
    while len(levels) < count and attempts < 1000 * max(count, 1):
        attempts += 1
        candidate = float(rng.uniform(p_lo, p_hi))
        if np.min(np.abs(critical - candidate)) > exclusion:
            levels.append(candidate)
    if len(levels) < count:
        raise ValueError("could not find enough probe levels away from critical values")
    return np.asarray(levels)

