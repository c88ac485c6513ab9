import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leveltopo import (RELU, SIGMOID, TANH, Layer, Network, Window, decompose, forward_batch,
                       one_to_one_relu)
from leveltopo.activations import activation_apply
from leveltopo.network import (FORWARD_BLOCK, dumps_network, load_network, loads_network,
                              save_network)


def small_net(activation=SIGMOID, final=True):
    layers = (
        Layer(np.array([[0.3, -1.2], [0.7, 0.1]]), np.array([0.05, -0.4])),
        Layer(np.array([[1.5, -0.2], [-0.3, 0.8]]), np.array([0.0, 0.25])),
        Layer(np.array([[0.9, -1.1]]), np.array([0.1])),
    )
    return Network(2, layers, activation, final)


class TestForward:
    def test_identity_layer_no_activation(self):
        net = Network(2, (Layer(np.eye(2), np.zeros(2)),), SIGMOID, final_activation=False)
        np.testing.assert_array_equal(forward_batch(net, np.array([[1.0, 2.0]])), [[1.0, 2.0]])

    def test_sigmoid_head_at_zero(self):
        net = Network(2, (Layer(np.array([[1.0, 1.0]]), np.array([0.0])),), SIGMOID)
        assert forward_batch(net, np.array([[0.0, 0.0]]))[0, 0] == 0.5

    def test_two_layer_affine_composition(self):
        # [[2,0],[0,2]] then [[1,1]] on x = (1,3): the intermediate (2,6) is
        # positive, so relu acts as the identity and the value is the pure
        # affine composition 2*1 + 2*3 = 8
        from leveltopo import RELU

        net = Network(2, (Layer(np.array([[2.0, 0.0], [0.0, 2.0]]), np.zeros(2)),
                          Layer(np.array([[1.0, 1.0]]), np.zeros(1))),
                      RELU, final_activation=False)
        assert forward_batch(net, np.array([[1.0, 3.0]]))[0, 0] == 8.0

    def test_dimension_mismatch(self):
        net = small_net()
        with pytest.raises(ValueError):
            forward_batch(net, np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(ValueError):
            forward_batch(net, np.ones((4, 3)))

    def test_layer_chain_validated(self):
        with pytest.raises(ValueError):
            Network(2, (Layer(np.eye(2), np.zeros(2)),
                        Layer(np.ones((1, 3)), np.zeros(1))), SIGMOID)

    def test_forward_is_pure(self):
        net = small_net(TANH)
        x = np.array([[0.37, -1.2]])
        first = forward_batch(net, x)
        for _ in range(5):
            np.testing.assert_array_equal(forward_batch(net, x), first)

    def test_single_point_matches_batch_row(self):
        net = small_net()
        xs = np.random.default_rng(0).normal(size=(10, 2))
        batch = forward_batch(net, xs)
        for i in range(len(xs)):
            np.testing.assert_array_equal(forward_batch(net, xs[i:i + 1])[0], batch[i])

    def test_weights_immutable(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.layers[0].weights[0, 0] = 99.0


def reference_forward(net, x):
    """The per-output loop ``forward_batch`` replaced, kept as its bitwise
    reference: a fresh (points, width) array per layer, each output column
    summed left to right over the inputs, then ``activation_apply``."""
    a = np.asarray(x, dtype=np.float64)
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        weights, bias = layer.weights, layer.bias
        z = np.empty((a.shape[0], weights.shape[0]), dtype=np.float64)
        for j in range(weights.shape[0]):
            acc = a[:, 0] * weights[j, 0]
            for k in range(1, weights.shape[1]):
                acc = acc + a[:, k] * weights[j, k]
            z[:, j] = acc + bias[j]
        a = activation_apply(net.activation, z) if (i < last or net.final_activation) else z
    return a


def random_net(rng, activation, final, width):
    """2 -> one to three hidden layers of ``width`` -> 1 or 2 outputs, with
    weights and biases large enough to saturate sigmoid and tanh."""
    arch = [2] + [width] * int(rng.integers(1, 4)) + [int(rng.integers(1, 3))]
    scale = float(rng.choice([0.5, 3.0, 40.0]))
    layers = tuple(Layer(rng.normal(scale=scale, size=(n_out, n_in)),
                         rng.normal(scale=scale, size=n_out))
                   for n_in, n_out in zip(arch[:-1], arch[1:]))
    return Network(2, layers, activation, final)


LATTICE = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0])).lattice((201, 201))


class TestForwardMatchesReference:
    @pytest.mark.parametrize("final", [True, False], ids=["final", "raw"])
    @pytest.mark.parametrize("activation", [SIGMOID, TANH, RELU, one_to_one_relu(3)],
                             ids=lambda a: a.kind.value)
    def test_bitwise(self, activation, final):
        rng = np.random.default_rng(24)
        for width in (1, 2, 3, 4):
            net = random_net(rng, activation, final, width)
            for x in (LATTICE[20100:20101], LATTICE):
                np.testing.assert_array_equal(forward_batch(net, x), reference_forward(net, x))

    @pytest.mark.parametrize("final", [True, False], ids=["final", "raw"])
    @pytest.mark.parametrize("activation", [SIGMOID, TANH, RELU, one_to_one_relu(3)],
                             ids=lambda a: a.kind.value)
    def test_bitwise_across_block_boundaries(self, activation, final):
        block = FORWARD_BLOCK
        x = np.random.default_rng(31).uniform(-6.0, 6.0, size=(5 * block // 2, 2))
        for seed in (32, 39):  # one output, then two
            net = random_net(np.random.default_rng(seed), activation, final, 3)
            for m in (0, 1, block - 1, block, block + 1, 5 * block // 2):
                out = forward_batch(net, x[:m])
                assert out.shape == (m, net.output_dim) and out.flags.c_contiguous
                np.testing.assert_array_equal(out, reference_forward(net, x[:m]))

    def test_fresh_output_and_untouched_input(self):
        net = random_net(np.random.default_rng(5), TANH, True, 3)
        for x in (LATTICE.copy(), np.asfortranarray(LATTICE), LATTICE[::-7]):
            before = x.copy()
            out = forward_batch(net, x)
            np.testing.assert_array_equal(x, before)
            assert out.shape == (len(x), net.output_dim) and out.dtype == np.float64
            assert out.flags.c_contiguous and out.flags.writeable
            assert not np.shares_memory(out, x)
            for layer in net.layers:
                assert not np.shares_memory(out, layer.weights)
                assert not np.shares_memory(out, layer.bias)


class TestDecompose:
    def test_layer_counts(self):
        trunk, head = decompose(small_net())
        assert len(trunk.layers) == 2 and len(head.layers) == 1
        assert trunk.final_activation is True

    def test_single_layer_rejected(self):
        net = Network(2, (Layer(np.ones((1, 2)), np.zeros(1)),), SIGMOID)
        with pytest.raises(ValueError):
            decompose(net)

    @pytest.mark.parametrize("activation,final", [
        (SIGMOID, True), (TANH, False), (one_to_one_relu(3), True)])
    def test_recomposition_bitwise(self, activation, final):
        net = small_net(activation, final)
        trunk, head = decompose(net)
        xs = np.random.default_rng(7).normal(scale=2.0, size=(100, 2))
        direct = forward_batch(net, xs)
        composed = forward_batch(head, forward_batch(trunk, xs))
        np.testing.assert_array_equal(direct, composed)

    def test_head_keeps_final_activation_flag(self):
        _, head_on = decompose(small_net(SIGMOID, True))
        _, head_off = decompose(small_net(SIGMOID, False))
        assert head_on.final_activation and not head_off.final_activation


class TestSerialization:
    def test_roundtrip_value_exact(self):
        net = small_net(one_to_one_relu(7), final=False)
        clone = loads_network(dumps_network(net))
        assert clone.input_dim == net.input_dim
        assert clone.activation == net.activation
        assert clone.final_activation == net.final_activation
        for a, b in zip(net.layers, clone.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_roundtrip_arbitrary_finite_floats(self, vals):
        net = Network(2, (Layer(np.array(vals[:4]).reshape(2, 2), np.array(vals[4:])),),
                      SIGMOID)
        clone = loads_network(dumps_network(net))
        np.testing.assert_array_equal(clone.layers[0].weights, net.layers[0].weights)
        np.testing.assert_array_equal(clone.layers[0].bias, net.layers[0].bias)

    def test_file_roundtrip(self, tmp_path):
        net = small_net()
        path = tmp_path / "model.json"
        save_network(net, path)
        clone = load_network(path)
        for a, b in zip(net.layers, clone.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_version_guard(self):
        bad = dumps_network(small_net()).replace('"format_version": 1',
                                                 '"format_version": 99')
        with pytest.raises(ValueError):
            loads_network(bad)


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("lo,hi", [
        ([-math.inf, -4.0], [4.0, 4.0]), ([-4.0, -4.0], [4.0, math.nan]),
        ([math.inf, 0.0], [math.inf, 1.0]), ([-1e308, -4.0], [1e308, 4.0]),
        ([-8e307, -4.0], [8e307, 4.0])],
        ids=["inf-lo", "nan-hi", "inf-both", "extent-overflows", "diagonal-overflows"])
    def test_non_finite_bounds_or_extent_rejected(self, lo, hi):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="a finite extent"):
                Window(np.array(lo), np.array(hi))

    def test_geometry(self):
        w = Window(np.array([-2.0, -1.0]), np.array([2.0, 3.0]))
        assert w.dim == 2
        assert w.diagonal == pytest.approx(math.hypot(4, 4))
        np.testing.assert_array_equal(w.extent, [4.0, 4.0])

    def test_boundary_distance(self):
        w = Window(np.array([0.0, 0.0]), np.array([4.0, 2.0]))
        d = w.boundary_distance(np.array([[1.0, 1.0], [0.0, 1.0], [3.9, 1.9]]))
        np.testing.assert_allclose(d, [1.0, 0.0, 0.1])

    @pytest.mark.parametrize("lo, hi, resolution", [
        ([-4.0], [4.0], (31,)), ([-4.0, -3.0], [4.0, 2.5], (201, 201)),
        ([-4.0, -3.0], [4.0, 2.5], (20, 7)), ([-1.0, -2.0, -3.0], [1.0, 2.0, 3.0], (11, 5, 7))],
        ids=["1d", "2d-201", "2d-20x7", "3d"])
    def test_lattice_matches_meshgrid(self, lo, hi, resolution):
        w = Window(np.array(lo), np.array(hi))
        axes = [np.linspace(a, b, r) for a, b, r in zip(w.lo, w.hi, resolution)]
        mesh = np.meshgrid(*axes, indexing="ij")
        expected = np.stack([m.ravel() for m in mesh], axis=1)
        points = w.lattice(resolution)
        assert points.flags.c_contiguous and points.dtype == np.float64
        np.testing.assert_array_equal(points, expected)
