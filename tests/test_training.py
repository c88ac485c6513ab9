import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leveltopo import (RELU, SIGMOID, TANH, ActivationKind, Dataset, Layer, Loss, Network,
                       Optimizer, TrainConfig, TrainingDiverged, accuracy, gen_ring_dataset,
                       init_weights, load_dataset, loss_and_grad, one_to_one_relu,
                       save_dataset, train, train_stack, training)


def fd_loss_gradient(net, points, labels, loss, h=1e-5):
    """Central-difference gradient of the batch loss, parameter by parameter.

    Independent oracle for the reverse-mode pass: it only ever calls the loss
    value, never the analytic gradients.
    """
    def loss_at(layers):
        rebuilt = Network(net.input_dim, tuple(layers), net.activation,
                          net.final_activation)
        return loss_and_grad(rebuilt, points, labels, loss)[0]

    grads = []
    for li, layer in enumerate(net.layers):
        dw = np.zeros_like(layer.weights)
        for idx in np.ndindex(*layer.weights.shape):
            w_plus = layer.weights.copy()
            w_plus[idx] += h
            w_minus = layer.weights.copy()
            w_minus[idx] -= h
            layers_p = list(net.layers)
            layers_p[li] = Layer(w_plus, layer.bias)
            layers_m = list(net.layers)
            layers_m[li] = Layer(w_minus, layer.bias)
            dw[idx] = (loss_at(layers_p) - loss_at(layers_m)) / (2 * h)
        db = np.zeros_like(layer.bias)
        for idx in np.ndindex(*layer.bias.shape):
            b_plus = layer.bias.copy()
            b_plus[idx] += h
            b_minus = layer.bias.copy()
            b_minus[idx] -= h
            layers_p = list(net.layers)
            layers_p[li] = Layer(layer.weights, b_plus)
            layers_m = list(net.layers)
            layers_m[li] = Layer(layer.weights, b_minus)
            db[idx] = (loss_at(layers_p) - loss_at(layers_m)) / (2 * h)
        grads.append((dw, db))
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            err = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
            worst = max(worst, float(err.max()))
    return worst


def random_case(rng, activation, loss, final_activation=True, margin=0.0):
    """Random small net plus a batch whose pre-activations respect ``margin``
    (needed for the kinked activations, whose joint is non-differentiable)."""
    for _ in range(200):
        depth = int(rng.integers(1, 6))
        widths = [int(rng.integers(1, 4)) for _ in range(depth)]
        arch = [int(rng.integers(1, 4))] + widths + [1]
        net = init_weights(arch, activation, int(rng.integers(2 ** 31)))
        x = rng.normal(scale=1.5, size=(5, arch[0]))
        y = rng.integers(0, 2, size=5)
        if margin == 0.0 or _min_preactivation(net, x) > margin:
            return net, x, y
    raise AssertionError("could not sample a batch away from activation joints")


def _min_preactivation(net, x):
    from leveltopo.activations import activation_apply

    a = x
    worst = math.inf
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        z = a @ layer.weights.T + layer.bias
        worst = min(worst, float(np.min(np.abs(z))))
        a = activation_apply(net.activation, z) if (i < last or net.final_activation) else z
    return worst


class TestRingDataset:
    def test_counts_and_labels(self):
        data = gen_ring_dataset(0, 1, 1)
        assert len(data) == 2
        assert sorted(data.labels.tolist()) == [0, 1]

    def test_determinism(self):
        a = gen_ring_dataset(123, 50, 80)
        b = gen_ring_dataset(123, 50, 80)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = gen_ring_dataset(1, 50, 80)
        b = gen_ring_dataset(2, 50, 80)
        assert not np.array_equal(a.points, b.points)

    def test_inner_class_rayleigh_mean(self):
        # mean norm of an isotropic 2-d gaussian is sigma * sqrt(pi/2)
        data = gen_ring_dataset(7, 10000, 1, inner_sigma=0.5)
        norms = np.linalg.norm(data.points[data.labels == 0], axis=1)
        expected = 0.5 * math.sqrt(math.pi / 2)
        assert abs(norms.mean() - expected) / expected < 0.05

    def test_ring_radius_distribution(self):
        data = gen_ring_dataset(7, 1, 10000, ring_radius=3.0, ring_sigma=0.3)
        radii = np.linalg.norm(data.points[data.labels == 1], axis=1)
        assert abs(radii.mean() - 3.0) < 0.05

    def test_separability_guard(self):
        with pytest.raises(ValueError, match="separable"):
            gen_ring_dataset(0, 10, 10, inner_sigma=0.5, ring_radius=1.5)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            gen_ring_dataset(0, 0, 10)

    def test_csv_roundtrip(self, tmp_path):
        data = gen_ring_dataset(3, 20, 30)
        path = tmp_path / "ring.csv"
        save_dataset(data, path)
        clone = load_dataset(path)
        np.testing.assert_array_equal(clone.points, data.points)
        np.testing.assert_array_equal(clone.labels, data.labels)

    @pytest.mark.parametrize("labels,bad", [
        ([0, 1, 2, 7], "2"), ([0, 0.7, 1, 1], "0.7"), ([0, 1, -1, 1], "-1"),
        ([0, math.nan, 1, 1], "nan"),
    ])
    def test_labels_outside_0_1_rejected(self, labels, bad):
        with pytest.raises(ValueError, match=f"labels must be 0 or 1, got {bad}$"):
            Dataset(np.zeros((4, 2)), labels)

    def test_labels_of_any_numeric_type_kept_as_int(self):
        for labels in ([0, 1], [0.0, 1.0], [False, True]):
            data = Dataset(np.zeros((2, 2)), labels)
            assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 1]

    def test_csv_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(gen_ring_dataset(5, 10, 10), p1)
        save_dataset(gen_ring_dataset(5, 10, 10), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestInitWeights:
    def test_shapes(self):
        net = init_weights([2, 2, 1], SIGMOID, 0)
        assert [l.weights.shape for l in net.layers] == [(2, 2), (1, 2)]

    def test_glorot_range(self):
        net = init_weights([3, 2, 1], TANH, 4)
        for layer in net.layers:
            s = math.sqrt(6.0 / (layer.n_in + layer.n_out))
            assert np.all(np.abs(layer.weights) <= s)
            assert np.all(layer.bias == 0.0)

    def test_seeds_differ(self):
        a = init_weights([2, 3, 1], SIGMOID, 0)
        b = init_weights([2, 3, 1], SIGMOID, 1)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


class TestLossAndGrad:
    def test_bce_of_indifferent_net_is_ln2(self):
        net = Network(2, (Layer(np.zeros((1, 2)), np.zeros(1)),), SIGMOID)
        data = gen_ring_dataset(0, 10, 10)
        loss, grads = loss_and_grad(net, data.points, data.labels, Loss.BCE)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_bce_requires_sigmoid_head(self):
        net = init_weights([2, 2, 1], TANH, 0)
        with pytest.raises(ValueError, match="sigmoid"):
            loss_and_grad(net, np.zeros((3, 2)), np.zeros(3), Loss.BCE)
        headless = init_weights([2, 2, 1], SIGMOID, 0, final_activation=False)
        with pytest.raises(ValueError, match="sigmoid"):
            loss_and_grad(headless, np.zeros((3, 2)), np.zeros(3), Loss.BCE)

    def test_mse_perfect_fit(self):
        # relu head on positive sums realizes the identity; target matches exactly
        net = Network(1, (Layer(np.array([[1.0]]), np.zeros(1)),), RELU)
        x = np.array([[1.0], [2.0]])
        loss, grads = loss_and_grad(net, x, np.array([1.0, 2.0]), Loss.MSE)
        assert loss == 0.0
        assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)

    def test_empty_batch_rejected(self):
        net = init_weights([2, 1], SIGMOID, 0)
        with pytest.raises(ValueError):
            loss_and_grad(net, np.zeros((0, 2)), np.zeros(0), Loss.BCE)

    def test_gradient_matches_finite_differences_sigmoid(self):
        rng = np.random.default_rng(99)
        net = init_weights([2, 3, 2, 1], SIGMOID, 5)
        x = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        _, analytic = loss_and_grad(net, x, y, Loss.BCE)
        numeric = fd_loss_gradient(net, x, y, Loss.BCE)
        assert max_relative_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("activation,loss,final,margin", [
        (SIGMOID, Loss.BCE, True, 0.0),
        (SIGMOID, Loss.MSE, True, 0.0),
        (TANH, Loss.MSE, True, 0.0),
        (TANH, Loss.MSE, False, 0.0),
        (RELU, Loss.MSE, False, 1e-3),
        (one_to_one_relu(3), Loss.MSE, False, 1e-3),
        (one_to_one_relu(1), Loss.MSE, True, 1e-3),
    ])
    def test_gradient_sweep(self, activation, loss, final, margin):
        rng = np.random.default_rng(hash((activation.kind.value, loss.value, final)) % 2**32)
        for _ in range(5):
            net, x, y = random_case(rng, activation, loss, final, margin)
            net = Network(net.input_dim, net.layers, activation, final)
            _, analytic = loss_and_grad(net, x, y, loss)
            numeric = fd_loss_gradient(net, x, y, loss)
            assert max_relative_error(analytic, numeric) < 1e-4


class TestTrain:
    def small_data(self):
        return gen_ring_dataset(0, 30, 60)

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)

    def test_single_step_changes_weights(self):
        data = self.small_data()
        net = init_weights([2, 2, 1], SIGMOID, 0)
        trained, history = train(net, data, TrainConfig(steps=1))
        assert len(history) == 1
        assert not np.array_equal(trained.layers[0].weights, net.layers[0].weights)

    def test_deterministic(self):
        data = self.small_data()
        net = init_weights([2, 3, 1], SIGMOID, 2)
        cfg = TrainConfig(steps=200, seed=17)
        a, hist_a = train(net, data, cfg)
        b, hist_b = train(net, data, cfg)
        assert hist_a.dtype == hist_b.dtype == np.float64
        assert hist_a.tobytes() == hist_b.tobytes()
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_history_every_step_and_early_stop(self):
        data = self.small_data()
        net = init_weights([2, 3, 1], SIGMOID, 0)
        trained, history = train(net, data, TrainConfig(steps=5000, target_loss=0.1))
        assert history.shape == (len(history),) and history.dtype == np.float64
        assert history[-1] <= 0.1 < history[:-1].min()
        assert len(history) < 5000
        # one entry per step: a run cut one step short records the same losses
        # but the last
        _, cut = train(net, data, TrainConfig(steps=len(history) - 1, target_loss=0.1))
        assert cut.tobytes() == history[:-1].tobytes()

    def test_minibatch_deterministic(self):
        data = self.small_data()
        net = init_weights([2, 2, 1], SIGMOID, 3)
        cfg = TrainConfig(steps=50, batch_size=16, seed=5)
        _, hist_a = train(net, data, cfg)
        _, hist_b = train(net, data, cfg)
        assert len(hist_a) == cfg.steps
        assert hist_a.tobytes() == hist_b.tobytes()

    @pytest.mark.parametrize("over,message", [
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"target_loss": float("nan")}, "target_loss"),
        ({"target_loss": float("inf")}, "target_loss"),
    ], ids=["lr-nan", "lr-inf", "lr-zero", "target-nan", "target-inf"])
    def test_settings_must_be_finite(self, over, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**over)

    def test_batch_size_validated(self):
        data = self.small_data()
        net = init_weights([2, 2, 1], SIGMOID, 0)
        with pytest.raises(ValueError):
            train(net, data, TrainConfig(steps=1, batch_size=len(data) + 1))

    def test_divergence_carries_history(self):
        # a linear read-out can blow up under an absurd step size; the bounded
        # sigmoid head cannot, so use final_activation=False here
        data = self.small_data()
        net = init_weights([2, 2, 1], SIGMOID, 0, final_activation=False)
        cfg = TrainConfig(optimizer=Optimizer.SGD, learning_rate=1e30, steps=100,
                          loss=Loss.MSE)
        with pytest.raises(TrainingDiverged) as err:
            train(net, data, cfg)
        assert len(err.value.history) >= 1
        assert err.value.step == len(err.value.history) + 1
        assert np.isfinite(err.value.history).all()

    def test_divergence_survives_pickling(self):
        err = TrainingDiverged(np.array([0.5, 0.25]))
        back = pickle.loads(pickle.dumps(err))
        assert back.history.tobytes() == err.history.tobytes()
        assert back.step == err.step == 3
        assert str(back) == str(err) == "loss diverged at step 3"

    def test_sgd_descends_on_smooth_problem(self):
        data = self.small_data()
        net = init_weights([2, 3, 1], SIGMOID, 1)
        cfg = TrainConfig(optimizer=Optimizer.SGD, learning_rate=0.5, steps=500,
                          target_loss=1e-9)
        _, history = train(net, data, cfg)
        assert history[-1] < history[0]

    def test_numpy_state_restored(self):
        # the kernel's error state and ufunc buffer size do not leak
        before = (np.geterr(), np.getbufsize())
        net, data = init_weights([2, 2, 1], SIGMOID, 0), gen_ring_dataset(0, 10, 20)
        train(net, data, TrainConfig(steps=3))
        loss_and_grad(net, data.points, data.labels, Loss.BCE)
        assert (np.geterr(), np.getbufsize()) == before

    def test_history_owns_its_data(self):
        data = self.small_data()
        net = init_weights([2, 3, 1], SIGMOID, 0)
        _, stopped = train(net, data, TrainConfig(steps=5000, target_loss=0.1))
        _, full = train(net, data, TrainConfig(steps=20))
        diverging = init_weights([2, 2, 1], SIGMOID, 0, final_activation=False)
        with pytest.raises(TrainingDiverged) as err:
            train(diverging, data, TrainConfig(optimizer=Optimizer.SGD, learning_rate=1e30,
                                               steps=100, loss=Loss.MSE))
        for history in (stopped, full, err.value.history):
            assert history.base is None and history.flags.owndata


def assert_same_training(got, want):
    """Bitwise-equal weights and histories of two (trained, history) results."""
    (net_a, hist_a), (net_b, hist_b) = got, want
    assert hist_a.dtype == hist_b.dtype == np.float64
    assert hist_a.tobytes() == hist_b.tobytes()
    for la, lb in zip(net_a.layers, net_b.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


class TestTrainStack:
    """A seed trained inside a stack gives bitwise what it gets trained alone."""

    def stack_and_solo(self, nets, datasets, cfg):
        stacked = train_stack(nets, datasets, cfg)
        solo = []
        for net, data in zip(nets, datasets):
            try:
                solo.append(train(net, data, cfg))
            except TrainingDiverged as exc:
                solo.append(exc)
        return stacked, solo

    def test_narrow_3a_architecture(self):
        seeds = (0, 1, 2, 3)
        nets = [init_weights([2, 2, 2, 2, 2, 2, 2, 1], SIGMOID, s) for s in seeds]
        datasets = [gen_ring_dataset(s, 500, 1000) for s in seeds]
        stacked, solo = self.stack_and_solo(nets, datasets, TrainConfig(steps=300))
        for got, want in zip(stacked, solo):
            assert len(got[1]) == 300
            assert_same_training(got, want)

    def test_wide_3b_seed_stops_while_others_train(self):
        seeds = (0, 1, 2)
        nets = [init_weights([2, 3, 1], SIGMOID, s) for s in seeds]
        datasets = [gen_ring_dataset(s, 500, 1000) for s in seeds]
        cfg = TrainConfig(steps=5000, target_loss=0.05)
        stacked, solo = self.stack_and_solo(nets, datasets, cfg)
        lengths = [len(hist) for _, hist in stacked]
        assert len(set(lengths)) == len(seeds) and max(lengths) < cfg.steps
        for data, got, want in zip(datasets, stacked, solo):
            assert_same_training(got, want)
            # a stopped seed keeps the weights its last loss was computed with
            trained, history = got
            final = loss_and_grad(trained, data.points, data.labels, Loss.BCE)[0]
            assert final == history[-1] <= cfg.target_loss

    def test_minibatches_share_the_configs_order(self):
        # three nets on one dataset, drawing their mini-batches in the order
        # of the one cfg.seed
        nets = [init_weights([2, 3, 1], SIGMOID, s) for s in (0, 1, 2)]
        data = gen_ring_dataset(0, 30, 60)
        cfg = TrainConfig(steps=400, batch_size=16, seed=3, target_loss=0.2)
        stacked, solo = self.stack_and_solo(nets, [data] * 3, cfg)
        for got, want in zip(stacked, solo):
            assert_same_training(got, want)
        # the seeds stop at different steps, so the stack shrinks mid-epoch
        assert len({len(hist) for _, hist in stacked}) == len(nets)

    def test_diverged_seed_leaves_the_stack(self):
        # plain least squares under SGD: stable on the ring data, divergent on
        # the same data blown up 100-fold
        base = [gen_ring_dataset(s, 30, 60) for s in range(4)]
        datasets = base[:2] + [Dataset(base[2].points * 100.0, base[2].labels)] + base[3:]
        nets = [init_weights([2, 1], SIGMOID, s, final_activation=False) for s in range(4)]
        cfg = TrainConfig(optimizer=Optimizer.SGD, learning_rate=0.1, steps=300,
                          loss=Loss.MSE, target_loss=0.0)
        stacked, solo = self.stack_and_solo(nets, datasets, cfg)
        diverged = stacked[2]
        assert isinstance(diverged, TrainingDiverged)
        assert isinstance(solo[2], TrainingDiverged)
        assert diverged.step == solo[2].step < cfg.steps
        assert diverged.history.tobytes() == solo[2].history.tobytes()
        assert len(diverged.history) == diverged.step - 1
        assert np.isfinite(diverged.history).all()
        for k in (0, 1, 3):
            assert len(stacked[k][1]) == cfg.steps
            assert_same_training(stacked[k], solo[k])

    def test_dataset_sizes_must_match(self):
        nets = [init_weights([2, 2, 1], SIGMOID, s) for s in (0, 1)]
        datasets = [gen_ring_dataset(0, 30, 60), gen_ring_dataset(1, 30, 61)]
        with pytest.raises(ValueError, match="size"):
            train_stack(nets, datasets, TrainConfig(steps=5))

    def test_output_width_must_be_one(self):
        # one label per point: a 2-output net would fail inside the kernel
        nets = [init_weights([2, 3, 2], SIGMOID, 0)]
        with pytest.raises(ValueError, match=r"output width \(the last --arch width\) "
                                             r"must be 1, one output per label, got 2"):
            train_stack(nets, [gen_ring_dataset(0, 30, 60)], TrainConfig(steps=5))

    def test_empty_stack(self):
        assert train_stack([], [], TrainConfig()) == []


# A frozen reference of the training arithmetic: the kernel as it stood
# before its activations and reductions were rewritten in place, with the
# activation code of that time.  The kernel must stay bitwise equal to it.

def ref_activation(act, x, out):
    if act.kind is ActivationKind.SIGMOID:
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)
    if act.kind is ActivationKind.TANH:
        return np.tanh(x, out=out)
    if act.kind is ActivationKind.RELU:
        return np.maximum(x, 0.0, out=out)
    out[...] = np.where(x >= 0, x, np.arctan(x) / act.sharpness)
    return out


def ref_derivative(act, x, post, out):
    if act.kind is ActivationKind.SIGMOID:
        result = np.subtract(1.0, post, out=out)
        result *= post
        return result
    if act.kind is ActivationKind.TANH:
        return np.subtract(1.0, np.multiply(post, post, out=out), out=out)
    if act.kind is ActivationKind.RELU:
        out[...] = np.where(x >= 0, 1.0, 0.0)
    else:
        out[...] = np.where(x >= 0, 1.0, 1.0 / (act.sharpness * (1.0 + x * x)))
    return out


def ref_layer_views(flat, shapes):
    seeds = flat.shape[0]
    views, start = [], 0
    for n_out, n_in in shapes:
        w_end = start + n_out * n_in
        views.append((flat[:, start:w_end].reshape(seeds, n_out, n_in),
                      flat[:, w_end:w_end + n_out].reshape(seeds, n_out, 1)))
        start = w_end + n_out
    return views


def ref_loss_and_grad(params, grads, shapes, activation, final_activation, x, y, loss):
    """Mean losses (S,) of a stack; writes its gradients into ``grads``."""
    views, grad_views = ref_layer_views(params, shapes), ref_layer_views(grads, shapes)
    work = [(np.empty((x.shape[0], n_out, x.shape[2])), np.empty((x.shape[0], n_out, x.shape[2])))
            for n_out, _ in shapes]
    last = len(views) - 1
    a = x
    for i, ((w, b), (z, post)) in enumerate(zip(views, work)):
        np.matmul(w, a, out=z)
        z += b
        a = ref_activation(activation, z, post) if (i < last or final_activation) else z
    seeds = x.shape[0]
    count = y.shape[1] * y.shape[2]
    z, delta = work[last]
    if loss is Loss.BCE:
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        losses = np.mean((softplus - y * z).reshape(seeds, count), axis=1)
        np.subtract(a, y, out=delta)
        delta /= count
    else:
        if final_activation:
            deriv = ref_derivative(activation, z, a, z)
        np.subtract(a, y, out=delta)
        losses = np.mean((delta * delta).reshape(seeds, count), axis=1)
        delta *= 2.0
        delta /= count
        if final_activation:
            delta *= deriv
    for i in range(last, -1, -1):
        gw, gb = grad_views[i]
        below = work[i - 1][1] if i > 0 else x
        np.matmul(delta, below.transpose(0, 2, 1), out=gw)
        np.sum(delta, axis=2, keepdims=True, out=gb)
        if i > 0:
            z_below = work[i - 1][0]
            deriv = ref_derivative(activation, z_below, below, z_below)
            np.matmul(views[i][0].transpose(0, 2, 1), delta, out=below)
            below *= deriv
            delta = below
    return losses


def ref_train(nets, datasets, cfg, seeds):
    """Every seed's weights and losses over ``cfg.steps`` steps, no early stop."""
    shapes = [layer.weights.shape for layer in nets[0].layers]
    n = len(datasets[0])
    batch = cfg.resolve_batch_size(n)
    rngs = [np.random.default_rng(s) for s in seeds]
    x = np.stack([d.points.T for d in datasets])
    y = np.stack([d.labels.astype(np.float64)[None, :] for d in datasets])
    params = np.stack([training._flatten(net) for net in nets])
    grads = np.empty_like(params)
    m_state, v_state = np.zeros_like(params), np.zeros_like(params)
    history = np.empty((len(nets), cfg.steps))
    cursor = n
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            bx, by = x, y
            if batch < n:
                if cursor + batch > n:
                    orders = np.stack([rng.permutation(n) for rng in rngs])
                    cursor = 0
                sel = orders[:, None, cursor:cursor + batch]
                cursor += batch
                bx = np.take_along_axis(x, sel, axis=2)
                by = np.take_along_axis(y, sel, axis=2)
            history[:, step - 1] = ref_loss_and_grad(
                params, grads, shapes, nets[0].activation, nets[0].final_activation,
                bx, by, cfg.loss)
            if cfg.optimizer is Optimizer.SGD:
                params -= cfg.learning_rate * grads
            else:
                c1 = 1.0 - training.ADAM_BETA1 ** step
                c2 = 1.0 - training.ADAM_BETA2 ** step
                m_state *= training.ADAM_BETA1
                m_state += (1.0 - training.ADAM_BETA1) * grads
                v_state *= training.ADAM_BETA2
                v_state += (1.0 - training.ADAM_BETA2) * grads * grads
                params -= cfg.learning_rate * (m_state / c1) / (
                    np.sqrt(v_state / c2) + training.ADAM_EPS)
    return params, history


KERNEL_CASES = {
    "sigmoid-bce": (SIGMOID, Loss.BCE, True),
    "sigmoid-mse-head": (SIGMOID, Loss.MSE, True),
    "sigmoid-mse-raw": (SIGMOID, Loss.MSE, False),
    "tanh-mse-head": (TANH, Loss.MSE, True),
    "tanh-mse-raw": (TANH, Loss.MSE, False),
    "relu-mse-head": (RELU, Loss.MSE, True),
    "relu-mse-raw": (RELU, Loss.MSE, False),
    "one_to_one_relu3-mse-head": (one_to_one_relu(3), Loss.MSE, True),
    "one_to_one_relu3-mse-raw": (one_to_one_relu(3), Loss.MSE, False),
}


class TestKernelMatchesReference:
    """Losses and gradients are bitwise those of the frozen reference."""

    def check_losses_and_gradients(self, arch, activation, loss, final, seeds, batch):
        """Compares three points of a descent; returns the last plan."""
        nets = [init_weights(arch, activation, s, final_activation=final) for s in seeds]
        # move the biases off zero, so the bias terms are exercised
        rng = np.random.default_rng(len(seeds))
        params = np.stack([training._flatten(net) for net in nets])
        params += rng.normal(scale=0.3, size=params.shape)
        shapes = [layer.weights.shape for layer in nets[0].layers]
        data = [gen_ring_dataset(s, 40, 80) for s in seeds]
        x = np.stack([d.points.T for d in data])
        y = np.stack([d.labels.astype(np.float64)[None, :] for d in data])
        if batch is not None:
            sel = np.stack([rng.permutation(len(data[0]))[:batch] for _ in seeds])[:, None, :]
            x, y = np.take_along_axis(x, sel, axis=2), np.take_along_axis(y, sel, axis=2)
        for _ in range(3):  # three points of a descent, not only the start
            want_grads = np.zeros_like(params)
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref_loss_and_grad(params, want_grads, shapes, activation, final,
                                         x, y, loss)
                got_grads = np.full_like(params, np.nan)
                plan = training._Plan(nets[0], params.copy(), got_grads, x.shape[2])
                got = training._stack_loss_and_grad(plan, x, y, loss)
            assert got.tobytes() == want.tobytes()
            for (gw, gb), (rw, rb) in zip(
                    [entry[:2] for entry in reversed(plan.backward)],
                    ref_layer_views(want_grads, shapes)):
                assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()
            params -= 0.5 * want_grads
        return plan

    @pytest.mark.parametrize("activation,loss,final", KERNEL_CASES.values(),
                             ids=KERNEL_CASES.keys())
    @pytest.mark.parametrize("seeds", [(4,), (0, 1, 2)], ids=["stack1", "stack3"])
    @pytest.mark.parametrize("batch", [None, 37], ids=["full", "mini"])
    def test_losses_and_gradients(self, activation, loss, final, seeds, batch):
        self.check_losses_and_gradients([2, 3, 2, 2, 1], activation, loss, final, seeds, batch)

    @pytest.mark.parametrize("activation,loss,final", KERNEL_CASES.values(),
                             ids=KERNEL_CASES.keys())
    @pytest.mark.parametrize("seeds", [(4,), (0, 1, 2)], ids=["stack1", "stack3"])
    @pytest.mark.parametrize("batch", [None, 37], ids=["full", "mini"])
    def test_width_one_hidden_layer(self, activation, loss, final, seeds, batch):
        # the delta of the width-1 hidden layer reaches the first layer's
        # buffers through the width-1 product, as the head's reaches the
        # second hidden layer's
        plan = self.check_losses_and_gradients([2, 2, 1, 2, 1], activation, loss, final,
                                               seeds, batch)
        assert [entry[3] for entry in plan.backward] == [
            training._width_one_product, np.matmul, training._width_one_product, np.matmul]

    @pytest.mark.parametrize("cfg", [
        TrainConfig(steps=300, target_loss=0.0),
        TrainConfig(optimizer=Optimizer.SGD, learning_rate=0.5, steps=300, target_loss=0.0),
        TrainConfig(steps=300, batch_size=50, target_loss=0.0),
    ], ids=["adam", "sgd", "adam-mini"])
    def test_training_matches_reference_loop(self, cfg):
        seeds = (0, 1, 2)
        nets = [init_weights([2, 2, 2, 2, 2, 2, 2, 1], SIGMOID, s) for s in seeds]
        datasets = [gen_ring_dataset(s, 50, 100) for s in seeds]
        stacked = train_stack(nets, datasets, cfg)
        params, history = ref_train(nets, datasets, cfg, [cfg.seed] * 3)
        for row, (trained, hist) in enumerate(stacked):
            assert hist.tobytes() == history[row].tobytes()
            assert training._flatten(trained).tobytes() == params[row].tobytes()

    def test_shrinking_stack_matches_reference_loop(self):
        # seeds leave the stack at different steps, so its plan (and the
        # negated biases of its sigmoid layers) is rebuilt mid-run; each seed
        # stops with the weights its last loss was computed with
        seeds = (0, 1, 2)
        nets = [init_weights([2, 3, 1], SIGMOID, s) for s in seeds]
        datasets = [gen_ring_dataset(s, 500, 1000) for s in seeds]
        cfg = TrainConfig(steps=5000, target_loss=0.05)
        stacked = train_stack(nets, datasets, cfg)
        steps = [len(hist) for _, hist in stacked]
        assert len(set(steps)) == len(seeds) and max(steps) < cfg.steps
        for net, data, (trained, hist), k in zip(nets, datasets, stacked, steps):
            _, history = ref_train([net], [data], dataclasses.replace(cfg, steps=k), [cfg.seed])
            params, _ = ref_train([net], [data], dataclasses.replace(cfg, steps=k - 1),
                                  [cfg.seed])
            assert hist.tobytes() == history[0].tobytes()
            assert training._flatten(trained).tobytes() == params[0].tobytes()


class TestAccuracy:
    def test_indifferent_net_predicts_ones(self):
        net = Network(2, (Layer(np.zeros((1, 2)), np.zeros(1)),), SIGMOID)
        data = gen_ring_dataset(0, 30, 70)
        assert accuracy(net, data) == pytest.approx(0.7)

    def test_perfect_and_flipped_separator(self):
        # classify by |x|^2 via a handcrafted net is overkill; use a radial stub
        points = np.array([[0.0, 0.1], [0.1, 0.0], [3.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 0, 1, 1])
        data = Dataset(points, labels)
        # single layer: w.x large for ring points along +x/+y diagonal
        net = Network(2, (Layer(np.array([[5.0, 5.0]]), np.array([-5.0])),), SIGMOID)
        assert accuracy(net, data) == 1.0
        flipped = Network(2, (Layer(np.array([[-5.0, -5.0]]), np.array([5.0])),), SIGMOID)
        assert accuracy(flipped, data) == 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_accuracy_in_unit_interval(self, seed):
        net = init_weights([2, 2, 1], SIGMOID, seed)
        data = gen_ring_dataset(1, 10, 10)
        assert 0.0 <= accuracy(net, data) <= 1.0
