from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from leveltopo import (SIGMOID, Window, accuracy, gen_ring_dataset, init_weights,
                       network_scalar_fn, region_components, sample_grid)
from leveltopo.fields import (RegionComponent, RegionComponents, ScalarField, _cell_min_max,
                              sample_noncritical_levels)


def window2(lo=-2.0, hi=2.0):
    return Window(np.array([lo, lo]), np.array([hi, hi]))


def paraboloid(points):
    return points[:, 0] ** 2 + points[:, 1] ** 2


class TestSampleGrid:
    def test_constant_field(self):
        fld = sample_grid(lambda p: np.full(len(p), 3.5), window2(), (5, 5))
        assert np.all(fld.values == 3.5)

    def test_coordinate_field_columns(self):
        fld = sample_grid(lambda p: p[:, 0], Window(np.zeros(2), np.ones(2)), (3, 3))
        np.testing.assert_array_equal(fld.values[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(fld.values[:, 2], [0.0, 0.5, 1.0])

    def test_paraboloid_corner(self):
        fld = sample_grid(paraboloid, Window(np.zeros(2), np.ones(2)), (3, 3))
        assert fld.values[2, 2] == 2.0

    def test_nonfinite_sample_reports_coordinates(self):
        def bad(points):
            out = paraboloid(points)
            out[np.all(points == 0.0, axis=1)] = np.nan
            return out

        with pytest.raises(ValueError, match="non-finite"):
            sample_grid(bad, window2(), (5, 5))

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            sample_grid(paraboloid, window2(), (1, 5))
        with pytest.raises(ValueError):
            sample_grid(paraboloid, window2(), (5,))

    def test_two_output_network_is_no_scalar_field(self):
        net = init_weights([2, 3, 2], SIGMOID, 0)
        with pytest.raises(ValueError, match="expected scalar output"):
            sample_grid(network_scalar_fn(net), window2(), (5, 5))
        with pytest.raises(ValueError, match="expected scalar output"):
            accuracy(net, gen_ring_dataset(0, 10, 10))

    def test_3d_sampling(self):
        win = Window(-np.ones(3), np.ones(3))
        fld = sample_grid(lambda p: np.linalg.norm(p, axis=1), win, (5, 5, 5))
        assert fld.values.shape == (5, 5, 5)
        assert fld.values[2, 2, 2] == 0.0

    def test_spacing_and_diag(self):
        fld = sample_grid(paraboloid, window2(), (5, 9))
        np.testing.assert_allclose(fld.spacing, [1.0, 0.5])


class TestScalarField:
    def test_caller_array_stays_writable_and_apart(self):
        values = np.arange(12.0).reshape(3, 4)
        fld = ScalarField(window2(), values)
        values[0, 0] = 100.0
        assert fld.values[0, 0] == 0.0
        assert not fld.values.flags.writeable


class TestRegionComponents:
    def test_annulus_single_component(self):
        fld = sample_grid(paraboloid, window2(), (101, 101))
        regions = region_components(fld, (0.5, 1.5))
        assert len(regions.components) == 1
        assert not regions.components[0].touches_boundary
        assert regions.components[0].straddles_mid

    def test_interval_below_min_is_empty(self):
        fld = sample_grid(paraboloid, window2(), (51, 51))
        assert region_components(fld, (-2.0, -0.5)).components == ()

    def test_halfplane_strip_touches_boundary(self):
        fld = sample_grid(lambda p: p[:, 0], window2(), (51, 51))
        regions = region_components(fld, (-0.1, 0.1))
        assert len(regions.components) == 1
        assert regions.components[0].touches_boundary

    def test_two_wells(self):
        def two_wells(p):
            a = (p[:, 0] - 1.0) ** 2 + p[:, 1] ** 2
            b = (p[:, 0] + 1.0) ** 2 + p[:, 1] ** 2
            return np.minimum(a, b)

        fld = sample_grid(two_wells, window2(), (101, 101))
        regions = region_components(fld, (-0.01, 0.2))
        assert len(regions.components) == 2

    def test_labels_partition_band_cells(self):
        fld = sample_grid(paraboloid, window2(), (41, 41))
        regions = region_components(fld, (0.5, 1.5))
        labeled = regions.label_grid >= 0
        assert labeled.sum() == sum(c.cell_count for c in regions.components)

    def test_3d_ball_region(self):
        win = Window(-2 * np.ones(3), 2 * np.ones(3))
        fld = sample_grid(lambda p: np.sum(p * p, axis=1), win, (21, 21, 21))
        regions = region_components(fld, (-0.1, 1.0))
        assert len(regions.components) == 1
        assert not regions.components[0].touches_boundary

    def test_interval_validated(self):
        fld = sample_grid(paraboloid, window2(), (11, 11))
        with pytest.raises(ValueError):
            region_components(fld, (1.0, 1.0))


# ---------------------------------------------------------------------------
# the breadth-first fill that hook-and-jump labelling replaced, kept as its
# reference


def bfs_region_components(fld, interval):
    """Label band cells by a breadth-first fill from each unlabelled band
    cell in ``np.argwhere`` order, one cell at a time."""
    lo, hi = interval
    cell_lo, cell_hi = _cell_min_max(fld.values)
    mask = (cell_lo < hi) & (cell_hi > lo)
    mid = 0.5 * (lo + hi)
    straddle_mask = (cell_lo < mid) & (cell_hi > mid)
    labels = np.full(mask.shape, -1, dtype=np.int64)
    shape = mask.shape
    offsets = []
    for axis in range(mask.ndim):
        for sign in (-1, 1):
            off = [0] * mask.ndim
            off[axis] = sign
            offsets.append(tuple(off))
    components = []
    for start in map(tuple, np.argwhere(mask)):
        if labels[start] != -1:
            continue
        label = len(components)
        queue = deque([start])
        labels[start] = label
        cell_count = 0
        touches = False
        straddles_mid = False
        while queue:
            cur = queue.popleft()
            cell_count += 1
            if any(c == 0 or c == shape[d] - 1 for d, c in enumerate(cur)):
                touches = True
            if straddle_mask[cur]:
                straddles_mid = True
            for off in offsets:
                nb = tuple(c + o for c, o in zip(cur, off))
                if any(c < 0 or c >= shape[d] for d, c in enumerate(nb)):
                    continue
                if mask[nb] and labels[nb] == -1:
                    labels[nb] = label
                    queue.append(nb)
        components.append(RegionComponent(cell_count, touches, straddles_mid))
    return RegionComponents(labels, tuple(components))


def assert_matches_bfs(fld, interval):
    got = region_components(fld, interval)
    want = bfs_region_components(fld, interval)
    assert got.label_grid.dtype == want.label_grid.dtype
    assert got.label_grid.shape == want.label_grid.shape
    assert got.label_grid.tobytes() == want.label_grid.tobytes()
    assert got.components == want.components
    for g in got.components:
        assert type(g.cell_count) is int
        assert type(g.touches_boundary) is bool and type(g.straddles_mid) is bool
    return got


def node_field(nodes):
    """A field that is 1 on the given nodes and 0 elsewhere; with the band
    (0.5, 1.5) its band cells are exactly the cells with a 1 at a corner."""
    nodes = np.asarray(nodes, dtype=np.float64)
    dim = nodes.ndim
    return ScalarField(Window(np.zeros(dim), np.ones(dim)), nodes)


NODE_BAND = (0.5, 1.5)


def serpentine_nodes(rows, cols):
    """A one-node-wide path of vertical lanes three nodes apart, joined
    alternately at the bottom and at the top, starting at the top right."""
    nodes = np.zeros((rows, cols))
    lanes = list(range(cols - 2, 0, -3))
    for k, c in enumerate(lanes):
        nodes[1:rows - 1, c] = 1
        if k + 1 < len(lanes):
            end = rows - 2 if k % 2 == 0 else 1
            nodes[end, lanes[k + 1]:c + 1] = 1
    return nodes


def spiral_nodes(n):
    """A one-node-wide spiral, lanes three nodes apart, walked inwards from
    the bottom left: up, right, down, left, each side three nodes shorter
    than the box it closes."""
    nodes = np.zeros((n, n))
    top, left, bottom, right = 1, 1, n - 2, n - 2
    r, c = bottom, left
    while top <= bottom and left <= right:
        nodes[top:r + 1, c] = 1          # up
        r = top
        left += 3
        nodes[r, c:right + 1] = 1        # right
        c = right
        top += 3
        nodes[r:bottom + 1, c] = 1       # down
        r = bottom
        right -= 3
        nodes[r, left:c + 1] = 1         # left
        c = left
        bottom -= 3
    return nodes


class TestRegionComponentsMatchBfs:
    """Hook-and-jump labels are the breadth-first fill's, bit for bit."""

    @pytest.mark.parametrize("f,res,interval", [
        (paraboloid, 101, (0.5, 1.5)),
        (paraboloid, 51, (-2.0, -0.5)),
        (lambda p: p[:, 0], 51, (-0.1, 0.1)),
        (lambda p: np.minimum((p[:, 0] - 1.0) ** 2 + p[:, 1] ** 2,
                              (p[:, 0] + 1.0) ** 2 + p[:, 1] ** 2), 101, (-0.01, 0.2)),
        (paraboloid, 41, (0.5, 1.5)),
        (paraboloid, 11, (0.5, 1.5)),
        (lambda p: np.cos(np.pi * np.linalg.norm(p, axis=1)), 121, (-0.05, 0.05)),
        (lambda p: np.sin(3 * p[:, 0]) * np.sin(3 * p[:, 1]), 97, (-0.02, 0.02)),
    ])
    def test_2d_fields(self, f, res, interval):
        assert_matches_bfs(sample_grid(f, window2(), (res, res)), interval)

    def test_3d_ball(self):
        win = Window(-2 * np.ones(3), 2 * np.ones(3))
        fld = sample_grid(lambda p: np.sum(p * p, axis=1), win, (21, 21, 21))
        assert_matches_bfs(fld, (-0.1, 1.0))
        assert_matches_bfs(fld, (1.0, 1.5))

    def test_many_small_and_single_cell_components(self):
        rng = np.random.default_rng(3)
        nodes = (rng.random((60, 50)) < 0.03).astype(float)
        nodes[[0, 0, -1, -1], [0, -1, 0, -1]] = 1
        regions = assert_matches_bfs(node_field(nodes), NODE_BAND)
        sizes = [c.cell_count for c in regions.components]
        assert len(regions.components) > 50
        assert sizes.count(1) >= 4 and max(sizes) <= 40

        noise = ScalarField(window2(), np.random.default_rng(4).standard_normal((80, 70)))
        regions = assert_matches_bfs(noise, (2.2, 9.0))
        assert len(regions.components) > 20

    def test_diagonal_contact_does_not_join(self):
        nodes = np.zeros((9, 9))
        nodes[2, 2] = nodes[4, 4] = 1
        regions = assert_matches_bfs(node_field(nodes), NODE_BAND)
        assert [c.cell_count for c in regions.components] == [4, 4]

    def test_components_touching_the_frame_only_at_a_corner_cell(self):
        nodes = np.zeros((12, 9))
        nodes[[0, 0, -1, -1], [0, -1, 0, -1]] = 1
        nodes[5, 4] = 1
        regions = assert_matches_bfs(node_field(nodes), NODE_BAND)
        corners = regions.label_grid[[0, 0, -1, -1], [0, -1, 0, -1]]
        assert sorted(corners.tolist()) == [0, 1, 3, 4]
        assert [(c.cell_count, c.touches_boundary) for c in regions.components] == [
            (1, True), (1, True), (4, False), (1, True), (1, True)]

        nodes = np.zeros((6, 7, 5))
        nodes[0, 0, 0] = nodes[-1, -1, -1] = nodes[-1, 0, -1] = 1
        regions = assert_matches_bfs(node_field(nodes), NODE_BAND)
        assert [(c.cell_count, c.touches_boundary) for c in regions.components] == [
            (1, True), (1, True), (1, True)]

    def test_band_covering_the_whole_grid(self):
        fld = sample_grid(paraboloid, window2(), (31, 23))
        regions = assert_matches_bfs(fld, (-1.0, 9.0))
        assert len(regions.components) == 1
        assert regions.components[0].cell_count == 30 * 22
        assert np.all(regions.label_grid == 0)

    def test_empty_band(self):
        fld = sample_grid(paraboloid, window2(), (31, 23))
        regions = assert_matches_bfs(fld, (-2.0, -1.0))
        assert len(regions.components) == 0
        assert np.all(regions.label_grid == -1)
        win = Window(-np.ones(3), np.ones(3))
        assert assert_matches_bfs(sample_grid(paraboloid, win, (5, 6, 7)),
                                  (-2.0, -1.0)).components == ()

    @pytest.mark.parametrize("nodes", [serpentine_nodes(100, 101), spiral_nodes(90),
                                       serpentine_nodes(100, 101).T],
                             ids=["serpentine", "spiral", "serpentine-rows"])
    def test_long_band_walking_against_c_order(self, nodes):
        regions = assert_matches_bfs(node_field(nodes), NODE_BAND)
        assert len(regions.components) == 1
        assert regions.components[0].cell_count > 3000

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_3d_noise(self, seed):
        values = np.random.default_rng(seed).standard_normal((17, 15, 13))
        fld = ScalarField(Window(np.zeros(3), np.ones(3)), values)
        for interval in [(-3.0, -1.5), (-1.0, -0.9), (-0.2, 0.1), (0.5, 0.6), (1.8, 4.0)]:
            assert_matches_bfs(fld, interval)

    @pytest.mark.parametrize("arch, init_seed", [
        ([2, 3, 1], 5), ([2, 2, 3, 1], 17), ([2, 3, 2, 3, 1], 29)])
    def test_narrow_bands_of_sigmoid_nets_at_201(self, arch, init_seed):
        # as the oracle audit probes a net: 5 levels away from critical
        # values, each with a band of +-1e-3 of the value range
        net = init_weights(arch, SIGMOID, init_seed)
        fld = sample_grid(network_scalar_fn(net), window2(-3.0, 3.0), (201, 201))
        lo, hi = fld.value_range()
        delta = 1e-3 * (hi - lo)
        levels = sample_noncritical_levels(fld, 5, np.random.default_rng(init_seed))
        for level in levels:
            regions = assert_matches_bfs(fld, (level - delta, level + delta))
            assert 0 < np.count_nonzero(regions.label_grid >= 0) < 0.05 * 200 * 200

    def test_band_touching_all_four_frame_edges(self):
        fld = sample_grid(lambda p: p[:, 0] * p[:, 1], window2(), (61, 47))
        regions = assert_matches_bfs(fld, (-0.05, 0.05))
        grid = regions.label_grid
        assert len(regions.components) == 1 and regions.components[0].touches_boundary
        assert all(np.any(edge == 0) for edge in (grid[0], grid[-1], grid[:, 0], grid[:, -1]))

    def test_narrow_band_of_a_3d_sigmoid_net(self):
        net = init_weights([3, 3, 1], SIGMOID, 7)
        fld = sample_grid(network_scalar_fn(net), Window(-3 * np.ones(3), 3 * np.ones(3)),
                          (31, 29, 27))
        lo, hi = fld.value_range()
        level = float(np.median(fld.values))
        regions = assert_matches_bfs(fld, (level - 1e-3 * (hi - lo), level + 1e-3 * (hi - lo)))
        assert regions.components

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda dim: arrays(
               np.float64, st.tuples(*[st.integers(2, 9)] * dim),
               elements=st.integers(0, 6).map(float))),
           st.floats(-0.5, 6.5), st.floats(0.1, 4.0))
    def test_random_small_fields(self, values, lo, width):
        fld = ScalarField(Window(np.zeros(values.ndim), np.ones(values.ndim)), values)
        assert_matches_bfs(fld, (lo, lo + width))


class TestNoncriticalLevels:
    def test_levels_avoid_extrema(self):
        net = init_weights([2, 3, 1], SIGMOID, 1)
        fld = sample_grid(network_scalar_fn(net), window2(-3, 3), (101, 101))
        rng = np.random.default_rng(0)
        levels = sample_noncritical_levels(fld, 10, rng)
        lo, hi = fld.value_range()
        assert len(levels) == 10
        assert np.all((levels > lo) & (levels < hi))

    def test_impossible_request_raises(self):
        fld = sample_grid(lambda p: np.full(len(p), 1.0), window2(), (11, 11))
        with pytest.raises(ValueError):
            sample_noncritical_levels(fld, 3, np.random.default_rng(0))
