"""Desk-scale training: ring dataset, backprop, SGD/Adam, accuracy.

Everything here is deliberately small and deterministic: full-batch updates
for datasets up to 4096 points, seeded generators everywhere, and the loss of
every step kept (a float64 array; entry k is step k + 1), so experiment
sweeps can be reproduced bitwise from their seeds.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .activations import Activation, ActivationKind, activation_forms, sigmoid_of_negated
from .fields import network_scalar_fn
from .network import Layer, Network, errors_named

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


def gen_ring_dataset(seed: int, n_inner: int, n_ring: int, inner_sigma: float = 0.5,
                     ring_radius: float = 3.0, ring_sigma: float = 0.3) -> Dataset:
    """Two-class 2-d dataset: a Gaussian blob at the origin (label 0) inside
    an annular class (label 1).

    The ideal decision boundary is a loop around the blob, which is exactly
    the kind of bounded level component narrow networks cannot produce.
    Requires ring_radius > 3 * inner_sigma so the classes barely overlap.
    """
    for name, flag, count in (("n_inner", "--inner", n_inner), ("n_ring", "--ring", n_ring)):
        if count < 1:
            raise ValueError(f"{name} ({flag}) must be >= 1, got {count}")
    for name, flag, sigma in (("inner_sigma", "--inner-sigma", inner_sigma),
                              ("ring_sigma", "--ring-sigma", ring_sigma)):
        if not 0 <= sigma < math.inf:
            raise ValueError(f"{name} ({flag}) must be finite and >= 0, got {sigma}")
    if not math.isfinite(ring_radius):
        raise ValueError(f"ring_radius (--ring-radius) must be finite, got {ring_radius}")
    if not ring_radius > 3.0 * inner_sigma:
        raise ValueError(
            f"classes not separable: need ring_radius (--ring-radius) > 3*inner_sigma "
            f"(--inner-sigma), got {ring_radius} <= {3.0 * inner_sigma}")
    rng = np.random.default_rng(seed)
    inner = rng.normal(0.0, inner_sigma, size=(n_inner, 2))
    radii = rng.normal(ring_radius, ring_sigma, size=n_ring)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n_ring)
    ring = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    points = np.concatenate([inner, ring], axis=0)
    labels = np.concatenate([np.zeros(n_inner, dtype=np.int64),
                             np.ones(n_ring, dtype=np.int64)])
    return Dataset(points, labels)


def save_dataset(data: Dataset, path) -> None:
    """Write ``x1,...,xn,label`` lines."""
    path = Path(path)
    lines = []
    for row, label in zip(data.points, data.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    """Read what ``save_dataset`` writes; an error names the file and a bad row's line."""
    path, points, labels = Path(path), [], []
    with errors_named(path):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            *row, label = line.split(",")
            with errors_named(f"line {number}"):
                if points and len(row) != len(points[0]):
                    raise ValueError(f"expected {len(points[0])} values before the label, "
                                     f"as the first row has, got {len(row)}")
                points.append([float(c) for c in row])
                labels.append(int(label))
        return Dataset(np.asarray(points), np.asarray(labels))


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
            raise ValueError(f"steps (--steps) must be >= 1, got {self.steps}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size (--batch-size) must be >= 1, got {self.batch_size}")

    def resolve_batch_size(self, n_points: int) -> int:
        if self.batch_size is not None:
            if self.batch_size > n_points:
                raise ValueError(f"batch_size (--batch-size) must be at most the dataset "
                                 f"size {n_points}, got {self.batch_size}")
            return self.batch_size
        return n_points if n_points <= FULL_BATCH_LIMIT else DEFAULT_MINI_BATCH


def init_weights(arch: list[int], activation: Activation, seed: int,
                 final_activation: bool = True) -> Network:
    """Glorot-style init: weights uniform in [-s, s], s = sqrt(6/(fan_in+fan_out));
    biases start at zero."""
    if len(arch) < 2 or any(w < 1 for w in arch):
        raise ValueError(f"architecture (--arch) must be two or more widths >= 1, got {arch}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(arch[:-1], arch[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append(Layer(rng.uniform(-s, s, size=(fan_out, fan_in)), np.zeros(fan_out)))
    return Network(arch[0], tuple(layers), activation, final_activation)


def _flatten(net: Network) -> np.ndarray:
    """All parameters of ``net`` in one row: each layer's weights, then its bias."""
    return np.concatenate([np.concatenate([layer.weights.ravel(), layer.bias])
                           for layer in net.layers])


def _width_one_product(w_t: np.ndarray, delta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``w_t @ delta`` for a (S, n, 1) ``w_t``: each element is one product."""
    return np.einsum("srk,skp->srp", w_t, delta, out=out)


class _Plan:
    """The arrays a step of a stack of S seeds of ``template``'s widths and
    activation touches, built when the stack is built and again each time
    it is compacted.

    ``forward`` holds, per layer, views of its weights (S, out, in) and bias
    (S, out, 1) into the (S, params) array ``params`` (laid out as
    ``_flatten`` lays out one row), the view of its negated bias or None, its
    (pre-activation, activation) buffers, each (S, out, points), and its
    activation's in-place form (None for a raw output layer).  Only a
    sigmoid hidden layer has a negated bias, a view into ``negated``, which
    the kernel refreshes from ``params`` with one ``np.negative`` per step.
    It forms ``(-b) - W a``, bitwise ``-(W a + b)`` up to the sign of a
    zero, and hands it to ``sigmoid_of_negated``, which saves the pass that
    would negate it; sigmoid's derivative reads only the activation.  The
    output layer keeps its bias (the BCE loss reads its pre-activation), and
    so do relu and one_to_one_relu (their derivatives read it) and tanh (it
    has no negation to save).  ``backward`` holds, last layer first,
    the views of its gradients into ``grads``, the transposed view of its
    weights, the product that carries its delta to the layer below, and the
    layer below's two buffers with the transposed view of its activation
    (None for the first layer, which reads the batch).  The product is
    ``np.matmul``, except through a layer of width 1: there each element is
    one product, which ``_width_one_product`` forms faster.  Only the sign
    of a zero can differ, and each gradient is a matmul or an
    ``np.add.reduce``, which both start from +0, so the gradients keep
    their bits.
    ``update`` is two (S, params) buffers for the optimizer's update.  A
    step allocates no hidden layer's array (freeing and re-allocating those
    made the allocator hand pages back to the system and fault them in
    again, every step), only the per-point loss of the output layer.
    """

    def __init__(self, template: Network, params: np.ndarray, grads: np.ndarray, points: int):
        seeds = params.shape[0]
        self.template = template
        forward, self.derivative = activation_forms(template.activation)
        fold = template.activation.kind is ActivationKind.SIGMOID and len(template.layers) > 1
        self.params, self.negated = params, (np.empty_like(params) if fold else None)
        self.forward, self.backward = [], []
        below, start, last = (None, None, None), 0, len(template.layers) - 1
        for i, layer in enumerate(template.layers):
            n_out, n_in = layer.weights.shape
            w_end, b_end = start + n_out * n_in, start + n_out * n_in + n_out
            w, gw = (a[:, start:w_end].reshape(seeds, n_out, n_in) for a in (params, grads))
            b, gb = (a[:, w_end:b_end].reshape(seeds, n_out, 1) for a in (params, grads))
            z, post = np.empty((seeds, n_out, points)), np.empty((seeds, n_out, points))
            if i < last:
                neg_b, act = ((self.negated[:, w_end:b_end].reshape(seeds, n_out, 1),
                               sigmoid_of_negated) if fold else (None, forward))
            else:
                neg_b, act = None, (forward if template.final_activation else None)
            self.forward.append((w, b, neg_b, z, post, act))
            product = _width_one_product if n_out == 1 else np.matmul
            self.backward.insert(0, (gw, gb, w.transpose(0, 2, 1), product, *below))
            below, start = (z, post, post.transpose(0, 2, 1)), b_end
        self.update = (np.empty_like(params), np.empty_like(params))

    def network(self, row: int) -> Network:
        """The network of stack row ``row``, with the template's activation."""
        return Network(self.template.input_dim,
                       tuple(Layer(w[row], b[row, :, 0]) for w, b, *_ in self.forward),
                       self.template.activation, self.template.final_activation)


# numpy's ufunc buffer size while the kernel runs, in elements
_KERNEL_BUFSIZE = 256


@contextmanager
def _kernel_numpy_state():
    """The numpy state the kernel runs under, restored on exit.

    Overflow and invalid operations raise no warning: a non-finite loss is
    the divergence signal.  The ufunc buffer is ``_KERNEL_BUFSIZE`` elements,
    not numpy's default 8192: at the default, numpy 2.4 buffers a bias add
    that broadcasts over rows shorter than that buffer, which takes 2-3
    times the time of the pass itself (8.8 against 3.2 µs at 3 seeds x 2
    rows x 1,500 points).  An elementwise result does not depend on how
    numpy splits its loop, and the kernel's reductions run along contiguous
    rows, which numpy reduces without a buffer, so the buffer size moves no
    bit: the pinned digests and the reference tests check that."""
    size = np.getbufsize()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            np.setbufsize(_KERNEL_BUFSIZE)
            yield
    finally:
        np.setbufsize(size)


def _stack_loss_and_grad(plan: _Plan, x: np.ndarray, y: np.ndarray, loss: Loss) -> np.ndarray:
    """Forward and reverse-mode pass for a stack of seeds; the training hot loop.

    ``x`` is (S, in, points) and ``y`` is (S, out, points).  Writes every
    seed's gradient into the plan's gradient views and returns its mean
    loss, shape (S,).  Each seed's numbers come from its own matrices and
    rows, so a seed gives the same bits alone and inside any stack.  The
    caller runs it under ``_kernel_numpy_state()`` and decides what to do
    with overflow: a non-finite loss is the divergence signal.
    """
    if plan.negated is not None:
        np.negative(plan.params, out=plan.negated)
    a = x
    for w, b, neg_b, z, post, act in plan.forward:
        np.matmul(w, a, out=z)
        if neg_b is None:
            z += b
        else:
            np.subtract(neg_b, z, out=z)
        a = z if act is None else act(z, post)

    seeds = x.shape[0]
    count = y.shape[1] * y.shape[2]
    z, delta, head_act = plan.forward[-1][3:]
    if loss is Loss.BCE:
        # softplus(z) - y z, softplus(z) = max(z, 0) + log1p(exp(-|z|)): finite
        # even where the sigmoid saturates
        terms = np.abs(z)
        np.negative(terms, out=terms)
        np.exp(terms, out=terms)
        np.log1p(terms, out=terms)
        total = np.maximum(z, 0.0)
        total += terms
        total -= np.multiply(y, z, out=terms)
        np.subtract(a, y, out=delta)
        delta /= count
    else:
        if head_act is not None:
            deriv = plan.derivative(a, z)
        np.subtract(a, y, out=delta)
        total = np.multiply(delta, delta)
        delta *= 2.0
        delta /= count
        if head_act is not None:
            delta *= deriv
    losses = np.add.reduce(total.reshape(seeds, count), axis=1)
    losses /= count  # what np.mean computes, bit for bit

    # the delta of layer i lives in that layer's activation buffer, which the
    # backward pass no longer needs once it reaches layer i
    for gw, gb, w_t, product, z_below, below, below_t in plan.backward:
        np.matmul(delta, x.transpose(0, 2, 1) if below is None else below_t, out=gw)
        np.add.reduce(delta, axis=2, keepdims=True, out=gb)
        if below is not None:
            deriv = plan.derivative(below, z_below)
            product(w_t, delta, out=below)
            below *= deriv
            delta = below
    return losses


def _check_loss_fits(net: Network, loss: Loss) -> None:
    if loss is Loss.BCE and not (net.final_activation
                                 and net.activation.kind is ActivationKind.SIGMOID):
        raise ValueError("loss bce (--loss) needs a sigmoid final activation (--activation)")


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
    params = _flatten(net)[None, :]
    plan = _Plan(net, params, np.empty_like(params), x.shape[0])
    with _kernel_numpy_state():
        losses = _stack_loss_and_grad(
            plan, np.ascontiguousarray(x.T)[None],
            np.ascontiguousarray(y.reshape(x.shape[0], -1).T)[None], loss)
    return float(losses[0]), [(gw[0], gb[0, :, 0]) for gw, gb, *_ in reversed(plan.backward)]


def _check_stack(nets: list[Network], datasets: list[Dataset], cfg: TrainConfig) -> None:
    if len(nets) != len(datasets):
        raise ValueError(f"stack needs one dataset per network, got "
                         f"{len(nets)} networks and {len(datasets)} datasets")
    first = nets[0]
    if first.output_dim != 1:
        raise ValueError(f"output width (the last --arch width) must be 1, one output per "
                         f"label, got {first.output_dim}")
    for net in nets:
        if (net.widths != first.widths or net.activation != first.activation
                or net.final_activation != first.final_activation):
            raise ValueError("stacked networks must share widths and activations")
        _check_loss_fits(net, cfg.loss)
    for data in datasets:
        if data.dim != first.input_dim:
            raise ValueError(f"input width (the first --arch width) must be the dataset dim "
                             f"{data.dim}, got {first.input_dim}")
        if len(data) != len(datasets[0]):
            raise ValueError(f"stacked datasets must have one size, got {len(data)} "
                             f"and {len(datasets[0])} points")


def _update(plan: _Plan, params, grads, moments, cfg: TrainConfig, step: int) -> None:
    """One optimizer step on every row, into the plan's update buffers.

    Adam runs the operations of ``m = b1 m + (1 - b1) g``, ``v = b2 v +
    (1 - b2) g g`` and ``params -= lr (m / c1) / (sqrt(v / c2) + eps)`` in
    their order of evaluation, so the bits are those of the expressions."""
    t1, t2 = plan.update
    if cfg.optimizer is Optimizer.SGD:
        params -= np.multiply(grads, cfg.learning_rate, out=t1)
        return
    m_state, v_state = moments
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    m_state *= ADAM_BETA1
    m_state += np.multiply(grads, 1.0 - ADAM_BETA1, out=t1)
    v_state *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=t1)
    t1 *= grads
    v_state += t1
    np.divide(m_state, c1, out=t1)
    t1 *= cfg.learning_rate
    np.divide(v_state, c2, out=t2)
    np.sqrt(t2, out=t2)
    t2 += ADAM_EPS
    t1 /= t2
    params -= t1


def train_stack(nets, datasets, cfg: TrainConfig) -> list:
    """Train a stack of seeds at once: net i on datasets[i], all under ``cfg``.

    The networks share their widths and activations and the datasets their
    size; mini-batches take the same points of every dataset, in the order
    ``cfg.seed`` draws.  Returns, in input order, ``(trained, history)`` per
    seed, or the ``TrainingDiverged`` that seed raised.  A seed leaves the
    stack when its loss reaches ``target_loss`` (keeping the weights that
    loss was computed with) or stops being finite, and the arrays of the
    others are compacted and their ``_Plan`` rebuilt; the (seeds, steps)
    loss buffer is not, and a result gets a copy of its row's prefix.  Every
    seed's result is bitwise what ``train`` gives it alone.
    """
    nets, datasets = list(nets), list(datasets)
    if not nets:
        return []
    _check_stack(nets, datasets, cfg)
    template = nets[0]
    n = len(datasets[0])
    batch = cfg.resolve_batch_size(n)
    rng = np.random.default_rng(cfg.seed)

    x = np.stack([d.points.T for d in datasets])                      # (S, in, N)
    y = np.stack([d.labels.astype(np.float64)[None, :] for d in datasets])  # (S, 1, N)
    params = np.stack([_flatten(net) for net in nets])                # (S, params)
    grads = np.empty_like(params)
    moments = ((np.zeros_like(params), np.zeros_like(params))
               if cfg.optimizer is Optimizer.ADAM else ())
    ids = np.arange(len(nets))         # stack row -> input position
    history = np.empty((len(nets), cfg.steps))
    results: list = [None] * len(nets)

    plan = _Plan(template, params, grads, batch)
    cursor = n  # forces a shuffle before the first mini-batch
    with _kernel_numpy_state():
        for step in range(1, cfg.steps + 1):
            if batch == n:
                bx, by = x, y
            else:
                if cursor + batch > n:
                    order = rng.permutation(n)
                    cursor = 0
                sel = order[cursor:cursor + batch]
                cursor += batch
                # a C-contiguous copy, as a full batch is: the matmuls keep their bits
                bx, by = x.take(sel, axis=2), y.take(sel, axis=2)

            losses = _stack_loss_and_grad(plan, bx, by, cfg.loss)
            history[ids, step - 1] = losses
            stay = (losses > cfg.target_loss) & (losses < math.inf)  # NaN fails both
            if not stay.all():
                for row in np.flatnonzero(~stay).tolist():
                    seed = ids[row]
                    if math.isfinite(losses[row]):
                        results[seed] = (plan.network(row),
                                         history[seed, :step].copy())
                    else:
                        results[seed] = TrainingDiverged(history[seed, :step - 1].copy())
                keep = np.flatnonzero(stay)
                if not keep.size:
                    break
                ids = ids[keep]
                params, grads, x, y = params[keep], grads[keep], x[keep], y[keep]
                moments = tuple(state[keep] for state in moments)
                plan = _Plan(template, params, grads, batch)

            _update(plan, params, grads, moments, cfg, step)
    for row, seed in enumerate(ids.tolist()):
        if results[seed] is None:  # trained for all its steps
            results[seed] = (plan.network(row), history[seed].copy())
    return results


def train(net: Network, data: Dataset, cfg: TrainConfig) -> tuple[Network, np.ndarray]:
    """Run the configured optimizer; stop early once loss <= target_loss.

    Returns the trained network and its loss history.  Deterministic for
    fixed (net, data, cfg): mini-batch order comes from a generator seeded
    with cfg.seed, and all arithmetic is fixed-order numpy.  Divergence
    (NaN/inf loss) raises TrainingDiverged carrying the finite history
    before it.  Trains a stack of one.
    """
    (result,) = train_stack([net], [data], cfg)
    if isinstance(result, TrainingDiverged):
        raise result
    return result


# the classifier's cut: a point is predicted class 1 when the output reaches it
DECISION_CUT = 0.5


def accuracy(net: Network, data: Dataset) -> float:
    """Fraction of points whose output, cut at DECISION_CUT, matches the label."""
    predicted = network_scalar_fn(net)(data.points) >= DECISION_CUT
    return float(np.mean(predicted == (data.labels == 1)))
