import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leveltopo import (RELU, SIGMOID, TANH, Activation, ActivationKind,
                       activation_apply, one_to_one_relu, one_to_one_relu_bound,
                       uniform_deviation)
from leveltopo.activations import _sigmoid, activation_forms, sigmoid_of_negated
from leveltopo.training import _width_one_product


def derivative(act, x):
    """``act'`` at the points ``x``, from the in-place forms the training
    kernel binds: the activation value first, then the derivative over a
    copy of ``x``."""
    forward, derive = activation_forms(act)
    z = np.array(x, dtype=np.float64)
    return derive(forward(z, np.empty_like(z)), z)


class TestOneToOneRelu:
    def test_continuous_at_joint(self):
        assert activation_apply(one_to_one_relu(1), 0.0) == 0.0

    def test_identity_on_nonnegative(self):
        assert activation_apply(one_to_one_relu(5), 2.0) == 2.0

    def test_negative_branch_closed_form(self):
        # (1/2) * arctan(-1) = -pi/8
        got = activation_apply(one_to_one_relu(2), -1.0)
        assert got == pytest.approx(-math.pi / 8, abs=1e-15)
        assert got == pytest.approx(-0.39269908169872414, abs=0)

    def test_negative_branch_is_negative(self):
        xs = np.linspace(-50, -1e-9, 100)
        assert np.all(activation_apply(one_to_one_relu(3), xs) < 0)

    @given(st.integers(1, 100),
           st.floats(-100, 100, allow_nan=False),
           st.floats(1e-5, 100, allow_nan=False))
    def test_strictly_monotone(self, n, x, gap):
        # gap floor keeps the increment resolvable in float64: the slope of
        # the negative branch is at least 1/(n (1 + x^2)) ~ 1e-6 here
        act = one_to_one_relu(n)
        assert activation_apply(act, x) < activation_apply(act, x + gap)

    def test_strictly_monotone_on_grid(self):
        xs = np.linspace(-50, 50, 10001)
        for n in (1, 5, 100):
            vals = activation_apply(one_to_one_relu(n), xs)
            assert np.all(np.diff(vals) > 0)

    def test_sharpness_required(self):
        with pytest.raises(ValueError):
            Activation(ActivationKind.ONE_TO_ONE_RELU)
        with pytest.raises(ValueError):
            Activation(ActivationKind.SIGMOID, sharpness=2)

    def test_derivative_right_of_joint_is_one(self):
        assert derivative(one_to_one_relu(7), [0.0])[0] == 1.0
        assert derivative(RELU, [0.0])[0] == 1.0

    def test_derivative_negative_branch(self):
        # d/dx arctan(x)/n = 1/(n (1 + x^2))
        got = derivative(one_to_one_relu(4), [-2.0])[0]
        assert got == pytest.approx(1.0 / (4 * 5.0), rel=1e-15)


class TestClassicActivations:
    def test_sigmoid_at_zero(self):
        assert activation_apply(SIGMOID, 0.0) == 0.5

    def test_sigmoid_saturates_cleanly(self):
        assert activation_apply(SIGMOID, -1000.0) == 0.0
        assert activation_apply(SIGMOID, 1000.0) == 1.0

    def test_tanh_odd(self):
        xs = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(activation_apply(TANH, xs),
                                   -activation_apply(TANH, -xs), atol=1e-16)

    def test_relu_not_one_to_one(self):
        assert not RELU.one_to_one
        assert SIGMOID.one_to_one and TANH.one_to_one
        assert one_to_one_relu(3).one_to_one

    @given(st.floats(-30, 30))
    def test_sigmoid_derivative_identity(self, x):
        s = activation_apply(SIGMOID, x)
        assert derivative(SIGMOID, [x])[0] == pytest.approx(s * (1 - s), rel=1e-12)

    @pytest.mark.parametrize("act", [SIGMOID, TANH, RELU, one_to_one_relu(3)],
                             ids=["sigmoid", "tanh", "relu", "one_to_one_relu"])
    def test_apply_into_x_is_bitwise_the_plain_one(self, act):
        # the in-place form may write over its input
        x = np.linspace(-6.0, 6.0, 41)
        expected = activation_apply(act, x)
        forward, _ = activation_forms(act)
        got = forward(x, x)
        assert got is x
        np.testing.assert_array_equal(got, expected)


# Values where the identities the training kernel rests on are most
# fragile: signed zeros, subnormals, the edges of exp's range and overflow.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -2.2250738585072e-308,
         709.78, -709.78, 745.2, -745.2, 1e308, -1e308, math.inf, -math.inf]
edge_or_float = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False))
float_arrays = st.lists(edge_or_float, min_size=1, max_size=16).map(np.array)


def same_bits(a, b):
    """Bitwise equal, where a NaN matches any NaN."""
    both_nan = np.isnan(a) & np.isnan(b)
    return bool(np.all((a.view(np.int64) == b.view(np.int64)) | both_nan))


def wide_floats(rng, size):
    """Floats of every sign and binary exponent, subnormals included."""
    return rng.choice([-1.0, 1.0], size) * np.exp2(rng.uniform(-1074.0, 1024.0, size))


class TestKernelIdentities:
    """The training kernel computes three things in another form than the
    plain one; each is compared bitwise here, so a numpy that broke one
    fails this rather than a digest."""

    def check_fold(self, m, b):
        # a sigmoid hidden layer hands (-b) - W a to the helper, not W a + b
        with np.errstate(over="ignore", invalid="ignore"):
            folded = sigmoid_of_negated(np.subtract(np.negative(b), m), np.empty_like(m))
            plain = _sigmoid(m + b, np.empty_like(m))
        assert same_bits(folded, plain)

    def check_reciprocal(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            assert same_bits(np.reciprocal(x), np.divide(1.0, x))

    def check_width_one_product(self, w, delta):
        # (S, n, 1) weights times an (S, 1, points) delta: one product an
        # element, up to the sign of a zero (einsum adds it to +0)
        w_t, delta = w.reshape(1, -1, 1), delta.reshape(1, 1, -1)
        out = np.empty((1, w_t.shape[1], delta.shape[2]))
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            got = _width_one_product(w_t, delta, out)
            want = np.multiply(w_t, delta)
        assert got is out
        assert np.array_equal(got, want, equal_nan=True)

    @given(float_arrays, float_arrays)
    def test_fold_hypothesis(self, m, b):
        n = min(len(m), len(b))
        self.check_fold(m[:n], b[:n])

    @given(float_arrays)
    def test_reciprocal_hypothesis(self, x):
        self.check_reciprocal(x)

    @given(float_arrays, float_arrays)
    def test_width_one_product_hypothesis(self, w, delta):
        self.check_width_one_product(w, delta)

    def test_edges_and_random_values(self):
        rng = np.random.default_rng(29)
        edges = np.array(EDGES)
        m, b = np.meshgrid(edges, edges)
        self.check_fold(m.ravel(), b.ravel())
        self.check_reciprocal(edges)
        self.check_width_one_product(edges, edges)
        # pre-activations as training meets them, and the whole float range
        for scale in (1.0, 40.0, 800.0):
            self.check_fold(rng.normal(0.0, scale, 100_000), rng.normal(0.0, scale, 100_000))
        self.check_fold(wide_floats(rng, 100_000), wide_floats(rng, 100_000))
        self.check_reciprocal(wide_floats(rng, 100_000))
        self.check_width_one_product(wide_floats(rng, 50), wide_floats(rng, 2000))


class TestUniformDeviation:
    def test_identical_functions(self):
        assert uniform_deviation(RELU, RELU, (-10, 10), 1001) == 0.0
        act = one_to_one_relu(10)
        assert uniform_deviation(act, act, (-7, 3), 500) == 0.0

    def test_bounded_by_pi_over_2n(self):
        for n in (1, 2, 5, 10, 100):
            dev = uniform_deviation(one_to_one_relu(n), RELU, (-100, 100), 10001)
            assert 0 < dev <= one_to_one_relu_bound(n)

    def test_approaches_bound_on_wide_interval(self):
        n = 4
        dev = uniform_deviation(one_to_one_relu(n), RELU, (-1e8, 1e8), 10001)
        assert dev == pytest.approx(one_to_one_relu_bound(n), rel=1e-6)

    def test_nonincreasing_in_sharpness(self):
        devs = [uniform_deviation(one_to_one_relu(n), RELU, (-1e6, 1e6), 20001)
                for n in (1, 2, 5, 10, 100)]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_grid_points_validated(self):
        with pytest.raises(ValueError):
            uniform_deviation(RELU, RELU, (-1, 1), 1)
