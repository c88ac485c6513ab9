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

from dataclasses import dataclass, field

import numpy as np

from .network import Network, Window, forward_batch


@dataclass(frozen=True)
class ScalarField:
    """Samples of a scalar function at the corner lattice of a window.

    ``values[i, j]`` is the sample at ``(axes[0][i], axes[1][j])``; 2-d and
    3-d grids are supported (contour extraction is 2-d only, region labeling
    handles both).  ``fn`` is the function sampled, which ``sample_grid``
    keeps so that marching squares can split saddle cells by it; a field
    built from bare values has none.
    """

    window: Window
    values: np.ndarray
    fn: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)  # the caller keeps its own array
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
    """Sample ``f`` at the corner lattice of ``window``; the field keeps ``f`` as ``fn``.

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
    return ScalarField(window, raw.reshape(resolution), f)


def cell_centres(xs: np.ndarray, ys: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The centres of the cells (i[k], j[k]) of the grid on axes ``xs`` and
    ``ys``, as (m, 2) points: where marching squares splits a saddle cell and
    a plot colours its fill."""
    return np.column_stack((0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))


def network_scalar_fn(net: Network):
    """Adapter: scalar-valued network -> field evaluation callable, (m, n) -> (m,)."""
    if net.output_dim != 1:
        raise ValueError(f"expected scalar output, network has output_dim {net.output_dim}")
    return lambda points: forward_batch(net, points)[:, 0]


@dataclass(frozen=True)
class RegionComponent:
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
    axis); -1 marks cells outside the band, and label k is ``components[k]``.
    Components use edge connectivity: 4 neighbors in 2-d, 6 in 3-d.
    """

    label_grid: np.ndarray
    components: tuple[RegionComponent, ...]


def _any_corner(nodes: np.ndarray) -> np.ndarray:
    """The cells with a True node among their 2^dim corners."""
    for axis in range(nodes.ndim):
        lower = [slice(None)] * nodes.ndim
        upper = [slice(None)] * nodes.ndim
        lower[axis] = slice(None, -1)
        upper[axis] = slice(1, None)
        nodes = nodes[tuple(lower)] | nodes[tuple(upper)]
    return nodes


def _cells_between(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Cells with a corner value below ``hi`` and one above ``lo``: for
    lo < hi those whose corner-value span meets (lo, hi), for lo == hi those
    that straddle it.  Works on booleans, not on the corner min and max."""
    return _any_corner(values < hi) & _any_corner(values > lo)


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
    mask = _cells_between(fld.values, lo, hi)

    shape = mask.shape
    cells = np.flatnonzero(mask)
    n = cells.size
    labels = np.full(shape, -1, dtype=np.int64)
    flat = labels.ravel()  # a view; until numbering, a band cell's position in ``cells``
    flat[cells] = np.arange(n)
    coords = np.unravel_index(cells, shape)
    # pairs of band cells adjacent along one axis, as positions in ``cells``:
    # each band cell short of the last layer along an axis, and its band
    # neighbour one stride on
    us, vs = [], []
    for axis, stride in enumerate(labels.strides):
        u = np.flatnonzero(coords[axis] < shape[axis] - 1)
        v = flat[cells[u] + stride // labels.itemsize]
        both = v >= 0
        us.append(u[both])
        vs.append(v[both])
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
    flat[cells] = number
    on_frame = np.zeros(n, dtype=bool)
    for d, c in enumerate(coords):
        on_frame |= (c == 0) | (c == shape[d] - 1)
    cell_count = np.bincount(number, minlength=k)
    touches = np.bincount(number[on_frame], minlength=k) > 0
    mid = 0.5 * (lo + hi)
    straddle = _cells_between(fld.values, mid, mid).ravel()[cells]
    straddles = np.bincount(number[straddle], minlength=k) > 0
    components = tuple(map(RegionComponent, cell_count.tolist(), touches.tolist(),
                           straddles.tolist()))
    return RegionComponents(labels, components)


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

