import dataclasses

import numpy as np
import pytest

from leveltopo import Layer, Network, analysis, is_nonsingular


@pytest.fixture
def singular_second_net(monkeypatch):
    """Non-singular sweeps build their second network with its first layer
    zeroed, which makes it singular; the sweep runs in this process."""
    build = analysis.build_random_nonsingular

    def build_with_singular_second(spec, index, net_seed):
        net, report = build(spec, index, net_seed)
        if index != 1:
            return net, report
        first = net.layers[0]
        net = Network(net.input_dim, (Layer(np.zeros_like(first.weights), first.bias),)
                      + net.layers[1:], net.activation, net.final_activation)
        return net, is_nonsingular(net)

    monkeypatch.setattr(analysis, "build_random_nonsingular", build_with_singular_second)
    monkeypatch.setenv(analysis.THREADS_ENV, "1")


@pytest.fixture
def diverging_spec():
    """The 3b preset on seeds 0 and 1 at a learning rate of 1e307: the first
    update overflows the weights, so both losses stop being finite at step 2."""
    preset = analysis.reproduction_spec("3b", (0, 1))
    return dataclasses.replace(preset, resolution=41, train=dataclasses.replace(
        preset.train, learning_rate=1e307, steps=50))
