import numpy as np
import pytest

from leveltopo import (SIGMOID, Window, eps_A_approximates, init_weights,
                       network_scalar_fn, one_to_one_relu, region_components,
                       sample_grid, uniform_deviation)
from leveltopo.activations import RELU, activation_apply, one_to_one_relu_bound
from leveltopo.fields import ScalarField, sample_noncritical_levels


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

    def test_3d_sampling(self):
        win = Window(-np.ones(3), np.ones(3))
        fld = sample_grid(lambda p: np.linalg.norm(p, axis=1), win, (5, 5, 5))
        assert fld.values.shape == (5, 5, 5)
        assert fld.values[2, 2, 2] == 0.0

    def test_spacing_and_diag(self):
        fld = sample_grid(paraboloid, window2(), (5, 9))
        np.testing.assert_allclose(fld.spacing, [1.0, 0.5])

    def test_hash_stable(self):
        a = sample_grid(paraboloid, window2(), (9, 9))
        b = sample_grid(paraboloid, window2(), (9, 9))
        assert a.sha256 == b.sha256


class TestRegionComponents:
    def test_annulus_single_component(self):
        fld = sample_grid(paraboloid, window2(), (101, 101))
        regions = region_components(fld, (0.5, 1.5))
        assert regions.count == 1
        assert not regions.components[0].touches_boundary
        assert regions.components[0].straddles_mid

    def test_interval_below_min_is_empty(self):
        fld = sample_grid(paraboloid, window2(), (51, 51))
        assert region_components(fld, (-2.0, -0.5)).count == 0

    def test_halfplane_strip_touches_boundary(self):
        fld = sample_grid(lambda p: p[:, 0], window2(), (51, 51))
        regions = region_components(fld, (-0.1, 0.1))
        assert regions.count == 1
        assert regions.components[0].touches_boundary

    def test_two_wells(self):
        def two_wells(p):
            a = (p[:, 0] - 1.0) ** 2 + p[:, 1] ** 2
            b = (p[:, 0] + 1.0) ** 2 + p[:, 1] ** 2
            return np.minimum(a, b)

        fld = sample_grid(two_wells, window2(), (101, 101))
        regions = region_components(fld, (-0.01, 0.2))
        assert regions.count == 2

    def test_labels_partition_band_cells(self):
        fld = sample_grid(paraboloid, window2(), (41, 41))
        regions = region_components(fld, (0.5, 1.5))
        labeled = regions.label_grid >= 0
        assert labeled.sum() == sum(c.cell_count for c in regions.components)

    def test_3d_ball_region(self):
        win = Window(-2 * np.ones(3), 2 * np.ones(3))
        fld = sample_grid(lambda p: np.sum(p * p, axis=1), win, (21, 21, 21))
        regions = region_components(fld, (-0.1, 1.0))
        assert regions.count == 1
        assert not regions.components[0].touches_boundary

    def test_interval_validated(self):
        fld = sample_grid(paraboloid, window2(), (11, 11))
        with pytest.raises(ValueError):
            region_components(fld, (1.0, 1.0))


class TestEpsApproximates:
    def test_equal_functions(self):
        assert eps_A_approximates(paraboloid, paraboloid, window2(), (21, 21), 1e-12)

    def test_strictness_at_exact_offset(self):
        f = paraboloid
        g = lambda p: paraboloid(p) + 0.25
        assert not eps_A_approximates(f, g, window2(), (21, 21), 0.25)
        assert eps_A_approximates(f, g, window2(), (21, 21), 0.25 + 1e-9)

    def test_one_to_one_relu_vs_relu_bound(self):
        n = 10
        f = lambda p: activation_apply(one_to_one_relu(n), p[:, 0])
        g = lambda p: activation_apply(RELU, p[:, 0])
        win = Window(np.array([-5.0, -1.0]), np.array([5.0, 1.0]))
        assert eps_A_approximates(f, g, win, (101, 3), one_to_one_relu_bound(n) + 1e-9)


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
