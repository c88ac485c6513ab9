"""The JSON forms of the value objects and level entries that reports and
model files store.

Each expected dict is a literal: a change to how a value object is written
shows here, not only as a report that differs from an earlier run.
"""

import dataclasses
import json

import numpy as np
import pytest

from leveltopo import Layer, Network, Window, is_nonsingular, one_to_one_relu, sample_grid
from leveltopo.analysis import (NonSingularSweepSpec, SeedOutcome, analyze_level,
                                reproduction_spec)
from leveltopo.network import network_from_dict, network_to_dict

SIGMOID_FORM = {"kind": "sigmoid", "sharpness": None}


def relu3_net():
    return Network(2, (Layer(np.array([[1.0, -0.5], [0.25, 2.0]]), np.array([0.0, 0.5])),
                       Layer(np.array([[1.5, -1.0]]), np.array([0.25]))),
                   one_to_one_relu(3), final_activation=False)


RELU3_NET_FORM = {
    "format_version": 1,
    "input_dim": 2,
    "layers": [{"weights": [[1.0, -0.5], [0.25, 2.0]], "bias": [0.0, 0.5]},
               {"weights": [[1.5, -1.0]], "bias": [0.25]}],
    "activation": {"kind": "one_to_one_relu", "sharpness": 3},
    "final_activation": False,
}


def test_network():
    assert network_to_dict(relu3_net()) == RELU3_NET_FORM


def test_reproduction_spec():
    assert reproduction_spec("3b", (0,)).to_dict() == {
        "name": "shallow-wide-3", "arch": [2, 3, 1], "activation": SIGMOID_FORM,
        "train": {"optimizer": "adam", "learning_rate": 0.05, "steps": 5000,
                  "batch_size": None, "seed": 0, "loss": "bce", "init": "uniform_scaled",
                  "target_loss": 0.05},
        "seeds": [0], "n_inner": 500, "n_ring": 1000, "inner_sigma": 0.5,
        "ring_radius": 3.0, "ring_sigma": 0.3, "resolution": 201,
        "levels": [0.5], "convergence_loss": 0.35, "regime": "wide"}


def test_sweep_spec():
    assert NonSingularSweepSpec().to_dict() == {
        "n": 2, "depths": [1, 2, 3, 4, 5, 6], "activation": SIGMOID_FORM, "count": 100,
        "levels_per_net": 5, "window": {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]},
        "resolution": 201, "seed": 0, "delta": 0.001}


def test_seed_outcome_with_its_level_sums_and_nonsingularity():
    levels = ({"bounded_final": 1, "boundary_final": 2}, {"bounded_final": 0, "boundary_final": 3})
    network = network_to_dict(relu3_net())
    outcome = SeedOutcome(seed=4, final_loss=0.125, steps_run=300, converged=True,
                          accuracy=0.75, levels=levels,
                          nonsingularity=is_nonsingular(relu3_net()), network=network)
    d = outcome.to_dict()
    assert d == {
        "seed": 4, "error": None, "final_loss": 0.125, "steps_run": 300, "converged": True,
        "accuracy": 0.75, "bounded_final": 1, "boundary_final": 5,
        "nonsingularity": {"determinants": [1.0625], "activation_one_to_one": True,
                           "widths_uniform": True, "verdict": True, "tolerance_used": 1e-09},
        "levels": list(levels), "network": RELU3_NET_FORM}
    # stored dicts are taken as they are, not copied member by member
    assert d["network"] is network
    assert all(a is b for a, b in zip(d["levels"], levels))


def test_empty_seed_outcome():
    assert SeedOutcome(seed=0).to_dict() == {
        "seed": 0, "error": None, "final_loss": None, "steps_run": None, "converged": None,
        "accuracy": None, "bounded_final": 0, "boundary_final": 0, "nonsingularity": None,
        "levels": [], "network": None}


def three_components(p):
    """At level 5: a circle of radius 5 about the origin, one of radius 2
    about (15, 15), and the line x = -25, which meets the frame."""
    return np.minimum.reduce([np.hypot(p[:, 0], p[:, 1]),
                              np.hypot(p[:, 0] - 15.0, p[:, 1] - 15.0) + 3.0, p[:, 0] + 30.0])


# unit spacing on this window, so the boundary tolerance is 1.5 cell diagonals
ENTRY_WINDOW = Window(np.array([-30.0, -40.0]), np.array([30.0, 40.0]))

LEVEL_ENTRY_FORM = {
    "level": 5.0,
    "final_classifications": ["boundary_touching", "bounded", "bounded"],
    "bounded_final": 2, "boundary_final": 1, "bounded_enclosing_origin": 1,
    "report": {
        "level": 5.0, "window": {"lo": [-30.0, -40.0], "hi": [30.0, 40.0]},
        "resolution": [61, 81], "boundary_tol": 1.5 * np.sqrt(2.0)},
}


def test_analyzed_level():
    entry = analyze_level(5, sample_grid(three_components, ENTRY_WINDOW, (61, 81)))
    components = entry["report"].pop("components")
    assert entry == LEVEL_ENTRY_FORM
    # a component stores its chain alone: its class is in final_classifications
    assert [set(c) for c in components] == [{"polylines"}] * 3
    frame_chain, origin_loop, side_loop = (np.array(c["polylines"][0]) for c in components)
    assert frame_chain[:, 0] == pytest.approx(-25.0)
    assert np.hypot(*origin_loop.T) == pytest.approx(5.0, abs=0.05)
    assert np.hypot(*(side_loop - 15.0).T) == pytest.approx(2.0, abs=0.05)


def test_window_round_trip():
    spec = NonSingularSweepSpec(window=Window(np.array([-1.0, -2.5]), np.array([0.5, 3.0])))
    window = Window(**spec.to_dict()["window"])
    np.testing.assert_array_equal(window.lo, [-1.0, -2.5])
    np.testing.assert_array_equal(window.hi, [0.5, 3.0])


def test_network_round_trip():
    net = network_from_dict(RELU3_NET_FORM)
    assert net.activation == one_to_one_relu(3) and not net.final_activation
    assert network_to_dict(net) == RELU3_NET_FORM


def test_sweep_spec_round_trip():
    spec = NonSingularSweepSpec(
        depths=(2, 0, 3), activation=one_to_one_relu(4), count=7, levels_per_net=2,
        window=Window(np.array([-1.0, -2.5]), np.array([0.5, 3.0])), resolution=61,
        seed=5, delta=0.01)
    form = json.loads(json.dumps(spec.to_dict()))
    default = NonSingularSweepSpec().to_dict()
    # every field differs from its default, so a decoder that skipped one shows
    assert [f.name for f in dataclasses.fields(spec) if form[f.name] == default[f.name]] == []
    # compared as JSON forms: a Window holds arrays, which dataclass == cannot compare
    assert NonSingularSweepSpec.from_dict(form).to_dict() == spec.to_dict()
    assert (NonSingularSweepSpec.from_dict(form, count=3).to_dict()
            == dataclasses.replace(spec, count=3).to_dict())
