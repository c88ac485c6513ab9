"""Desk-scale training: ring dataset, backprop, SGD/Adam, accuracy.

Everything here is deliberately small and deterministic: full-batch updates
for datasets up to 4096 points, seeded generators everywhere, and the loss of
every step kept (a float64 array; entry k is step k + 1), so experiment
sweeps can be reproduced bitwise from their seeds.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .activations import Activation, ActivationKind, activation_apply, activation_derivative
from .network import Layer, Network, scalar_output

FULL_BATCH_LIMIT = 4096
DEFAULT_MINI_BATCH = 1024
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Loss became NaN/inf at step ``len(history) + 1``; carries the finite
    losses of the steps before it."""

    def __init__(self, history: np.ndarray):
        self.history = history
        self.step = len(history) + 1
        super().__init__(f"loss diverged at step {self.step}")

    def __reduce__(self):
        return TrainingDiverged, (self.history,)


@dataclass
class Dataset:
    """Labeled points: points (N, n) float64, labels (N,) in {0, 1}."""

    points: np.ndarray
    labels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels)
        bad = labels[(labels != 0) & (labels != 1)]
        if bad.size:
            raise ValueError(f"dataset labels must be 0 or 1, got {bad[0].item()!r}")
        self.labels = labels.astype(np.int64)
        if self.points.ndim != 2 or self.labels.shape != (self.points.shape[0],):
            raise ValueError(f"bad dataset shapes: {self.points.shape}, {self.labels.shape}")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("dataset contains non-finite points")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)


def gen_ring_dataset(seed: int, n_inner: int, n_ring: int, inner_sigma: float = 0.5,
                     ring_radius: float = 3.0, ring_sigma: float = 0.3) -> Dataset:
    """Two-class 2-d dataset: a Gaussian blob at the origin (label 0) inside
    an annular class (label 1).

    The ideal decision boundary is a loop around the blob, which is exactly
    the kind of bounded level component narrow networks cannot produce.
    Requires ring_radius > 3 * inner_sigma so the classes barely overlap.
    """
    if n_inner < 1 or n_ring < 1:
        raise ValueError("class counts must be >= 1")
    if not ring_radius > 3.0 * inner_sigma:
        raise ValueError(
            f"classes not separable: need ring_radius > 3*inner_sigma, "
            f"got {ring_radius} <= {3.0 * inner_sigma}")
    rng = np.random.default_rng(seed)
    inner = rng.normal(0.0, inner_sigma, size=(n_inner, 2))
    radii = rng.normal(ring_radius, ring_sigma, size=n_ring)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n_ring)
    ring = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    points = np.concatenate([inner, ring], axis=0)
    labels = np.concatenate([np.zeros(n_inner, dtype=np.int64),
                             np.ones(n_ring, dtype=np.int64)])
    meta = {"generator": "ring", "seed": seed, "n_inner": n_inner, "n_ring": n_ring,
            "inner_sigma": inner_sigma, "ring_radius": ring_radius, "ring_sigma": ring_sigma}
    return Dataset(points, labels, meta)


def save_dataset(data: Dataset, path) -> None:
    """Write ``x1,...,xn,label`` lines plus a JSON metadata sidecar."""
    path = Path(path)
    lines = []
    for row, label in zip(data.points, data.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n")
    Path(str(path) + ".meta.json").write_text(
        json.dumps(data.metadata, indent=2, sort_keys=True) + "\n")


def load_dataset(path) -> Dataset:
    path = Path(path)
    points, labels = [], []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        cells = line.split(",")
        points.append([float(c) for c in cells[:-1]])
        labels.append(int(cells[-1]))
    sidecar = Path(str(path) + ".meta.json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return Dataset(np.asarray(points), np.asarray(labels), meta)


class Optimizer(enum.Enum):
    SGD = "sgd"
    ADAM = "adam"


class Loss(enum.Enum):
    BCE = "bce"
    MSE = "mse"


class Init(enum.Enum):
    UNIFORM_SCALED = "uniform_scaled"


@dataclass(frozen=True)
class TrainConfig:
    optimizer: Optimizer = Optimizer.ADAM
    learning_rate: float = 0.05
    steps: int = 5000
    batch_size: int | None = None  # None: full batch up to FULL_BATCH_LIMIT points
    seed: int = 0
    loss: Loss = Loss.BCE
    init: Init = Init.UNIFORM_SCALED
    target_loss: float = 0.05

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate (--lr) must be finite and positive, "
                             f"got {self.learning_rate}")
        if not math.isfinite(self.target_loss):
            raise ValueError(f"target_loss (--target-loss) must be finite, "
                             f"got {self.target_loss}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def resolve_batch_size(self, n_points: int) -> int:
        if self.batch_size is not None:
            if self.batch_size > n_points:
                raise ValueError(f"batch_size {self.batch_size} exceeds dataset size {n_points}")
            return self.batch_size
        return n_points if n_points <= FULL_BATCH_LIMIT else DEFAULT_MINI_BATCH

    def to_dict(self) -> dict:
        return {"optimizer": self.optimizer.value, "learning_rate": self.learning_rate,
                "steps": self.steps, "batch_size": self.batch_size, "seed": self.seed,
                "loss": self.loss.value, "init": self.init.value,
                "target_loss": self.target_loss}


def init_weights(arch: list[int], activation: Activation, seed: int,
                 final_activation: bool = True) -> Network:
    """Glorot-style init: weights uniform in [-s, s], s = sqrt(6/(fan_in+fan_out));
    biases start at zero."""
    if len(arch) < 2 or any(w < 1 for w in arch):
        raise ValueError(f"invalid architecture {arch}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append(Layer(rng.uniform(-s, s, size=(fan_out, fan_in)), np.zeros(fan_out)))
    return Network(arch[0], tuple(layers), activation, final_activation)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _flatten(net: Network) -> np.ndarray:
    """All parameters of ``net`` in one row: each layer's weights, then its bias."""
    return np.concatenate([np.concatenate([layer.weights.ravel(), layer.bias])
                           for layer in net.layers])


def _layer_views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer views (weights (S, out, in), bias (S, out, 1)) of a (S, params) array."""
    seeds = flat.shape[0]
    views, start = [], 0
    for n_out, n_in in shapes:
        w_end = start + n_out * n_in
        views.append((flat[:, start:w_end].reshape(seeds, n_out, n_in),
                      flat[:, w_end:w_end + n_out].reshape(seeds, n_out, 1)))
        start = w_end + n_out
    return views


def _workspace(seeds: int, shapes, points: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (pre-activation, activation) buffers, each (S, out, points).

    The kernel reuses them every step, so a step allocates no array of the
    stack's size (freeing and re-allocating those made the allocator hand
    pages back to the system and fault them in again, every step).
    """
    return [(np.empty((seeds, n_out, points)), np.empty((seeds, n_out, points)))
            for n_out, _ in shapes]


def _stack_loss_and_grad(params, grads, work, activation: Activation,
                         final_activation: bool, x: np.ndarray, y: np.ndarray,
                         loss: Loss) -> np.ndarray:
    """Forward and reverse-mode pass for a stack of seeds; the training hot loop.

    ``x`` is (S, in, points) and ``y`` is (S, out, points); ``params`` and
    ``grads`` are per-layer views from ``_layer_views`` and ``work`` comes
    from ``_workspace``.  Writes every seed's gradient into ``grads`` and
    returns its mean loss, shape (S,).  Each seed's numbers come from its own
    matrices and rows, so a seed gives the same bits alone and inside any
    stack.  The caller decides what to do with overflow: a non-finite loss
    is the divergence signal.
    """
    last = len(params) - 1
    a = x
    for i, ((w, b), (z, post)) in enumerate(zip(params, work)):
        np.matmul(w, a, out=z)
        z += b
        a = activation_apply(activation, z, out=post) if (i < last or final_activation) else z

    seeds = x.shape[0]
    count = y.shape[1] * y.shape[2]
    z, delta = work[last]
    if loss is Loss.BCE:
        losses = np.mean((_softplus(z) - y * z).reshape(seeds, count), axis=1)
        np.subtract(a, y, out=delta)
        delta /= count
    else:
        if final_activation:
            deriv = activation_derivative(activation, z, a, out=z)
        np.subtract(a, y, out=delta)
        losses = np.mean((delta * delta).reshape(seeds, count), axis=1)
        delta *= 2.0
        delta /= count
        if final_activation:
            delta *= deriv

    # the delta of layer i lives in that layer's activation buffer, which the
    # backward pass no longer needs once it reaches layer i
    for i in range(last, -1, -1):
        gw, gb = grads[i]
        below = work[i - 1][1] if i > 0 else x
        np.matmul(delta, below.transpose(0, 2, 1), out=gw)
        np.sum(delta, axis=2, keepdims=True, out=gb)
        if i > 0:
            z_below = work[i - 1][0]
            deriv = activation_derivative(activation, z_below, below, out=z_below)
            np.matmul(params[i][0].transpose(0, 2, 1), delta, out=below)
            below *= deriv
            delta = below
    return losses


def _check_loss_fits(net: Network, loss: Loss) -> None:
    if loss is Loss.BCE and not (net.final_activation
                                 and net.activation.kind is ActivationKind.SIGMOID):
        raise ValueError("BCE requires a network with sigmoid final activation")


def loss_and_grad(net: Network, points: np.ndarray, labels: np.ndarray,
                  loss: Loss) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean loss over the batch and its exact reverse-mode gradient.

    Returns per-layer (dW, db) in layer order.  BCE is computed from the
    final pre-activation through softplus, so it stays finite even when the
    sigmoid saturates; it therefore requires a sigmoid final activation.
    Runs the training kernel on a stack of one.
    """
    x = np.asarray(points, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a non-empty (m, n) array")
    if x.shape[1] != net.input_dim:
        raise ValueError(f"batch dim {x.shape[1]} != network input dim {net.input_dim}")
    _check_loss_fits(net, loss)
    shapes = [layer.weights.shape for layer in net.layers]
    params = _flatten(net)[None, :]
    grads = np.empty_like(params)
    grad_views = _layer_views(grads, shapes)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = _stack_loss_and_grad(
            _layer_views(params, shapes), grad_views, _workspace(1, shapes, x.shape[0]),
            net.activation, net.final_activation, np.ascontiguousarray(x.T)[None],
            np.ascontiguousarray(y.reshape(x.shape[0], -1).T)[None], loss)
    return float(losses[0]), [(gw[0], gb[0, :, 0]) for gw, gb in grad_views]


def _check_stack(nets: list[Network], datasets: list[Dataset],
                 cfgs: list[TrainConfig]) -> None:
    if not len(nets) == len(datasets) == len(cfgs):
        raise ValueError(f"stack needs one dataset and one config per network, got "
                         f"{len(nets)} networks, {len(datasets)} datasets, {len(cfgs)} configs")
    first, cfg = nets[0], cfgs[0]
    for net in nets:
        if (net.widths != first.widths or net.activation != first.activation
                or net.final_activation != first.final_activation):
            raise ValueError("stacked networks must share widths and activations")
        _check_loss_fits(net, cfg.loss)
    for data in datasets:
        if data.dim != first.input_dim:
            raise ValueError(f"dataset dim {data.dim} != network input dim {first.input_dim}")
        if len(data) != len(datasets[0]):
            raise ValueError(f"stacked datasets must have one size, got {len(data)} "
                             f"and {len(datasets[0])} points")
    for other in cfgs:
        if dataclasses.replace(other, seed=cfg.seed) != cfg:
            raise ValueError("stacked configs may differ only in their seed")


def _network_at(template: Network, views, row: int) -> Network:
    """The network of stack row ``row``, with ``template``'s activation."""
    return Network(template.input_dim,
                   tuple(Layer(w[row], b[row, :, 0]) for w, b in views),
                   template.activation, template.final_activation)


def train_stack(nets, datasets, cfgs) -> list:
    """Train a stack of seeds at once: net i on datasets[i] under cfgs[i].

    The networks share their widths and activations, the datasets their
    size, and the configs everything but ``seed``, which picks each seed's
    mini-batches.  Returns, in input order, ``(trained, history)`` per seed,
    or the ``TrainingDiverged`` that seed raised.  A seed leaves the stack
    when its loss reaches ``target_loss`` (keeping the weights that loss was
    computed with) or stops being finite, and the arrays of the others are
    compacted; the (seeds, steps) loss buffer is not, and a result gets a
    copy of its row's prefix.  Every seed's result is bitwise what it gets
    trained alone.
    """
    nets, datasets, cfgs = list(nets), list(datasets), list(cfgs)
    if not nets:
        return []
    _check_stack(nets, datasets, cfgs)
    template, cfg = nets[0], cfgs[0]
    shapes = [layer.weights.shape for layer in template.layers]
    n = len(datasets[0])
    batch = cfg.resolve_batch_size(n)
    rngs = [np.random.default_rng(c.seed) for c in cfgs]

    x = np.stack([d.points.T for d in datasets])                      # (S, in, N)
    y = np.stack([d.labels.astype(np.float64)[None, :] for d in datasets])  # (S, 1, N)
    params = np.stack([_flatten(net) for net in nets])                # (S, params)
    grads = np.empty_like(params)
    if cfg.optimizer is Optimizer.ADAM:
        m_state = np.zeros_like(params)
        v_state = np.zeros_like(params)
    ids = np.arange(len(nets))         # stack row -> input position
    history = np.empty((len(nets), cfg.steps))
    results: list = [None] * len(nets)

    views, grad_views = _layer_views(params, shapes), _layer_views(grads, shapes)
    work = _workspace(len(ids), shapes, batch)
    orders = None
    cursor = n  # forces a shuffle before the first mini-batch
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            if batch == n:
                bx, by = x, y
            else:
                if cursor + batch > n:
                    orders = np.stack([rng.permutation(n) for rng in rngs])
                    cursor = 0
                sel = orders[:, None, cursor:cursor + batch]
                cursor += batch
                bx = np.take_along_axis(x, sel, axis=2)
                by = np.take_along_axis(y, sel, axis=2)

            losses = _stack_loss_and_grad(views, grad_views, work, template.activation,
                                          template.final_activation, bx, by, cfg.loss)
            history[ids, step - 1] = losses
            stay = (losses > cfg.target_loss) & (losses < math.inf)  # NaN fails both
            if not stay.all():
                for row in np.flatnonzero(~stay).tolist():
                    seed = ids[row]
                    if math.isfinite(losses[row]):
                        results[seed] = (_network_at(template, views, row),
                                         history[seed, :step].copy())
                    else:
                        results[seed] = TrainingDiverged(history[seed, :step - 1].copy())
                keep = np.flatnonzero(stay)
                if not keep.size:
                    break
                ids = ids[keep]
                rngs = [rngs[row] for row in keep.tolist()]
                params, x, y = params[keep], x[keep], y[keep]
                grads = grads[keep]
                if orders is not None:
                    orders = orders[keep]
                if cfg.optimizer is Optimizer.ADAM:
                    m_state, v_state = m_state[keep], v_state[keep]
                views, grad_views = _layer_views(params, shapes), _layer_views(grads, shapes)
                work = _workspace(len(ids), shapes, batch)

            if cfg.optimizer is Optimizer.SGD:
                params -= cfg.learning_rate * grads
            else:
                c1 = 1.0 - ADAM_BETA1 ** step
                c2 = 1.0 - ADAM_BETA2 ** step
                m_state *= ADAM_BETA1
                m_state += (1.0 - ADAM_BETA1) * grads
                v_state *= ADAM_BETA2
                v_state += (1.0 - ADAM_BETA2) * grads * grads
                params -= cfg.learning_rate * (m_state / c1) / (np.sqrt(v_state / c2)
                                                                + ADAM_EPS)
    for row, seed in enumerate(ids.tolist()):
        if results[seed] is None:  # trained for all its steps
            results[seed] = (_network_at(template, views, row), history[seed].copy())
    return results


def train(net: Network, data: Dataset, cfg: TrainConfig) -> tuple[Network, np.ndarray]:
    """Run the configured optimizer; stop early once loss <= target_loss.

    Returns the trained network and its loss history.  Deterministic for
    fixed (net, data, cfg): mini-batch order comes from a generator seeded
    with cfg.seed, and all arithmetic is fixed-order numpy.  Divergence
    (NaN/inf loss) raises TrainingDiverged carrying the finite history
    before it.  Trains a stack of one.
    """
    (result,) = train_stack([net], [data], [cfg])
    if isinstance(result, TrainingDiverged):
        raise result
    return result


# the classifier's cut: a point is predicted class 1 when the output reaches it
DECISION_CUT = 0.5


def accuracy(net: Network, data: Dataset) -> float:
    """Fraction of points whose output, cut at DECISION_CUT, matches the label."""
    outputs = scalar_output(net, data.points)
    predicted = outputs >= DECISION_CUT
    return float(np.mean(predicted == (data.labels == 1)))
