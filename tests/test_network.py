import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leveltopo import (SIGMOID, TANH, Layer, Network, Window, decompose, forward_batch,
                       one_to_one_relu)
from leveltopo.network import dumps_network, load_network, loads_network, save_network


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

    def test_geometry(self):
        w = Window(np.array([-2.0, -1.0]), np.array([2.0, 3.0]))
        assert w.dim == 2
        assert w.diagonal == pytest.approx(math.hypot(4, 4))
        np.testing.assert_array_equal(w.extent, [4.0, 4.0])

    def test_boundary_distance(self):
        w = Window(np.array([0.0, 0.0]), np.array([4.0, 2.0]))
        d = w.boundary_distance(np.array([[1.0, 1.0], [0.0, 1.0], [3.9, 1.9]]))
        np.testing.assert_allclose(d, [1.0, 0.0, 0.1])
