"""Experiment harness tying training, construction, and contour topology together.

Three entry points:

* ``run_experiment``: train networks over a seed sweep on the ring dataset and
  classify the components of their decision boundaries.
* ``random_nonsingular_sweep``: build random non-singular networks and probe
  many level sets; each one should consist solely of boundary-touching
  components, so any surviving bounded component is a reportable violation.
* ``composition_tolerance_check``: numerically search the per-link tolerance
  delta under which perturbing every link of a composition by delta keeps the
  composite within eps on the window.

A component counts as bounded when it is a closed loop whose every vertex
clears the window frame by 1.5 cell diagonals; ``analyze_level`` decides this
on the sampled window alone.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .activations import SIGMOID, Activation, activation_from_dict
from .contours import extract_components
from .fields import ScalarField, network_scalar_fn, sample_grid
from .network import Network, Window, _plain, network_to_dict
from .nonsingular import is_nonsingular, make_nonsingular, pad_to_width, NonSingularityReport
from .reports import EncodedOutcome, encode_outcome, level_entry
from .training import (DECISION_CUT, Dataset, TrainConfig, TrainingDiverged, accuracy,
                       gen_ring_dataset, init_weights, loss_and_grad, train_stack)

THREADS_ENV = "LEVELSET_PROBE_THREADS"


class ConstructionError(RuntimeError):
    """A network that was just made non-singular failed the membership check."""


def _usable_cores() -> int:
    """The cores this process may run on, or the machine's where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _worker_count(n_items: int) -> int:
    env = os.environ.get(THREADS_ENV)
    try:
        limit = int(env) if env else _usable_cores()
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {env!r}")
    return max(1, min(limit, n_items))


def parallel_map(fn, items):
    """Map a pure function over items, in order, using worker processes when
    allowed; each item goes to the next worker that is free."""
    items = list(items)
    workers = _worker_count(len(items))
    if workers == 1:
        return [fn(x) for x in items]
    # imported here, so that a process that never starts workers does not
    # load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# per-level analysis


def analyze_level(level: float, field: ScalarField) -> dict:
    """The report entry (``level_entry``) of the level components of
    ``field``, classified on the window.

    Only the centres of saddle cells call ``field.fn``, so callers probing
    several levels sample the window once.
    """
    return level_entry(float(level), field.window, field.resolution,
                       [c.chain for c in extract_components(field, level)])


def analyze_outcome(net: Network, config: dict) -> tuple[SeedOutcome, ScalarField]:
    """An ``analyze`` run's outcome, an entry per level of its config on the
    config's window and resolution, and the sampling the entries read."""
    field = sample_grid(network_scalar_fn(net), Window(**config["window"]),
                        (config["resolution"],) * 2)
    levels = tuple(analyze_level(level, field) for level in config["levels"])
    return SeedOutcome(seed=0, levels=levels, network=network_to_dict(net)), field


# ---------------------------------------------------------------------------
# trained-network experiments


def auto_window(data: Dataset) -> Window:
    """The bounding box of the data, doubled about its center."""
    lo, hi = data.points.min(axis=0), data.points.max(axis=0)
    center, extent = 0.5 * (lo + hi), hi - lo
    return Window(center - extent, center + extent)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one seed sweep.  Each seed is analysed
    on the bounding box of its data, doubled (``auto_window``)."""

    name: str
    arch: tuple[int, ...]
    activation: Activation
    train: TrainConfig
    seeds: tuple[int, ...]
    n_inner: int = 500
    n_ring: int = 1000
    inner_sigma: float = 0.5
    ring_radius: float = 3.0
    ring_sigma: float = 0.3
    resolution: int = 201
    levels: tuple[float, ...] = (DECISION_CUT,)
    convergence_loss: float = 0.35

    @property
    def regime(self) -> str:
        """``"skinny"`` when no hidden width exceeds the input width, else ``"wide"``."""
        return "skinny" if all(w <= self.arch[0] for w in self.arch[1:-1]) else "wide"

    def to_dict(self) -> dict:
        return {**_plain(self), "regime": self.regime}

    def dataset(self, seed: int) -> Dataset:
        """The ring data of ``seed``."""
        return gen_ring_dataset(seed, self.n_inner, self.n_ring, self.inner_sigma,
                                self.ring_radius, self.ring_sigma)


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    error: str | None = None
    final_loss: float | None = None
    steps_run: int | None = None
    converged: bool | None = None
    accuracy: float | None = None
    levels: tuple[dict, ...] = ()  # report entries (``analyze_level``)
    nonsingularity: NonSingularityReport | None = None
    network: dict | None = None  # the analysed network, for re-checking and re-plotting

    def to_dict(self) -> dict:
        return {**_plain(self), **{key: sum(lv[key] for lv in self.levels)
                                   for key in ("bounded_final", "boundary_final")}}


@dataclass(frozen=True)
class SweepResult:
    """The outcomes of ``run_experiment``, one per seed in seed order."""

    outcomes: tuple[SeedOutcome, ...]


def trained_outcome(spec: ExperimentSpec, seed: int, data: Dataset, net: Network,
                    steps_run: int) -> SeedOutcome:
    """A trained seed's outcome, for a run and a rebuild alike: the loss of
    ``net`` on ``data``, and each of ``spec.levels`` analysed on ``auto_window``
    of its data.  A seed stops before ``train.steps`` only at ``target_loss``,
    with the weights of that loss; any other ran every step."""
    field = sample_grid(network_scalar_fn(net), auto_window(data),
                        (spec.resolution, spec.resolution))
    loss = loss_and_grad(net, data.points, data.labels, spec.train.loss)[0]
    if not (1 <= steps_run < spec.train.steps and loss <= spec.train.target_loss):
        steps_run = spec.train.steps
    return SeedOutcome(seed=seed, final_loss=loss, steps_run=steps_run,
                       converged=loss <= spec.convergence_loss,
                       accuracy=accuracy(net, data), network=network_to_dict(net),
                       levels=tuple(analyze_level(level, field) for level in spec.levels))


def _seed_outcome(spec: ExperimentSpec, seed: int, data, result) -> SeedOutcome:
    """Analyze one seed's training result: (trained, loss history), or the
    TrainingDiverged it raised, whose outcome analyses nothing."""
    if isinstance(result, TrainingDiverged):
        losses = result.history.tolist()
        return SeedOutcome(seed=seed, error=str(result), steps_run=len(losses),
                           final_loss=losses[-1] if losses else None)
    trained, history = result
    return trained_outcome(spec, seed, data, trained, len(history))


def _experiment_stack(spec: ExperimentSpec, seeds: tuple[int, ...]) -> list[SeedOutcome]:
    """Train a stack of seeds, then analyze each seed."""
    datasets = [spec.dataset(seed) for seed in seeds]
    nets = [init_weights(list(spec.arch), spec.activation, seed) for seed in seeds]
    return [_seed_outcome(spec, seed, data, result) for seed, data, result
            in zip(seeds, datasets, train_stack(nets, datasets, spec.train))]


STACK_SEEDS = 12  # the most seeds trained as one stack (see ``run_experiment``)


def _seed_stacks(seeds: tuple[int, ...], workers: int) -> list[tuple[int, ...]]:
    """Cut ``seeds`` into contiguous stacks, in seed order, whose sizes
    differ by at most one.  Their number is the smallest multiple of
    ``workers`` that keeps each stack at ``STACK_SEEDS`` seeds or fewer, so
    every worker gets as many stacks; empty ones (fewer seeds than workers)
    are left out."""
    count = workers * max(1, math.ceil(len(seeds) / (workers * STACK_SEEDS)))
    bounds = [len(seeds) * k // count for k in range(count + 1)]
    return [seeds[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def run_experiment(spec: ExperimentSpec) -> SweepResult:
    """Train/analyze every seed of the sweep; training divergence is recorded
    per seed without aborting the rest.

    The seeds are cut into stacks of at most ``STACK_SEEDS`` (``_seed_stacks``),
    which the workers take as they free up, and each stack trains as one.
    Small stacks keep their buffers in a core's cache (a 50-seed 3b stack's
    (seeds, 3, 1500) float64 buffers take 1.8 MB each).  Per seed and step,
    a 3b stack took 31-32 us at 8-12 seeds, 38 us at 20 and 45 us at 50, and
    a 3a stack 82 us at 10 seeds and 92 us at 20 (2 cores, numpy 2.4.6).  A
    seed's result does not depend on its stack, so the outcomes are the same
    for any stack size and worker count.
    """
    seeds = tuple(spec.seeds)
    stacks = _seed_stacks(seeds, _worker_count(len(seeds)))
    outcomes = parallel_map(partial(_experiment_stack, spec), stacks)
    return SweepResult(tuple(o for stack in outcomes for o in stack))


def reproduction_spec(fig: str, seeds: tuple[int, ...]) -> ExperimentSpec:
    """Presets for the two reference experiments.

    ``3a``: six hidden layers of width two (input-width bound) -- trains to a
    decision boundary that cannot close into a loop.  ``3b``: one hidden
    layer of width three -- closes a loop around the inner class easily.
    """
    if fig == "3a":
        name, arch, steps = "deep-narrow-2x6", (2, 2, 2, 2, 2, 2, 2, 1), 20000
    elif fig == "3b":
        name, arch, steps = "shallow-wide-3", (2, 3, 1), 5000
    else:
        raise ValueError(f"unknown reproduction target {fig!r} (expected 3a or 3b)")
    return ExperimentSpec(name=name, arch=arch, activation=SIGMOID,
                          train=TrainConfig(steps=steps), seeds=tuple(int(s) for s in seeds))


# ---------------------------------------------------------------------------
# random non-singular sweeps


SWEEP_DIM = 2  # the input width of every sweep net, and the width it is padded to


@dataclass(frozen=True)
class NonSingularSweepSpec:
    depths: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    activation: Activation = SIGMOID
    count: int = 100
    levels_per_net: int = 5
    window: Window = dataclasses.field(
        default_factory=lambda: Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0])))
    resolution: int = 201
    seed: int = 0
    delta: float = 1e-3

    def __post_init__(self):
        if not self.activation.one_to_one:
            raise ValueError(f"activation (--activation) must be one-to-one for a non-singular "
                             f"sweep, got {self.activation.kind.value}")
        if self.count < 0:
            raise ValueError(f"count (--count) must be >= 0, got {self.count}")
        if not self.depths or min(self.depths) < 0:
            raise ValueError(f"depths (--depths) must be one or more depths >= 0, "
                             f"got {list(self.depths)}")
        if self.levels_per_net < 1:
            raise ValueError(f"levels_per_net (--levels-per-net) must be >= 1, "
                             f"got {self.levels_per_net}")
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta (--delta) must be finite and positive, got {self.delta}")
        if self.window.dim != SWEEP_DIM:
            raise ValueError(f"window (--window) must be {SWEEP_DIM}-d, "
                             f"got a {self.window.dim}-d window")
        if self.resolution < 2:
            raise ValueError(f"resolution (--resolution) must be >= 2, got {self.resolution}")

    def to_dict(self) -> dict:
        return {**_plain(self), "n": SWEEP_DIM}

    @classmethod
    def from_dict(cls, d: dict, **given) -> NonSingularSweepSpec:
        """The spec whose ``to_dict`` is ``d``, with the fields in ``given`` set instead."""
        decode = {"tuple[int, ...]": tuple, "Activation": activation_from_dict,
                  "Window": lambda w: Window(**w)}
        return cls(**given, **{f.name: decode.get(f.type, lambda v: v)(d[f.name])
                               for f in dataclasses.fields(cls) if f.name not in given})


def build_random_nonsingular(spec: NonSingularSweepSpec, index: int,
                             net_seed: int) -> tuple[Network, NonSingularityReport]:
    """One random network taken through pad -> perturb -> verify."""
    rng = np.random.default_rng(net_seed)
    depth = spec.depths[index % len(spec.depths)]
    hidden = [int(rng.integers(1, SWEEP_DIM + 1)) for _ in range(depth)]
    arch = [SWEEP_DIM, *hidden, 1]
    net = init_weights(arch, spec.activation, int(rng.integers(2 ** 31)))
    padded = pad_to_width(net, SWEEP_DIM)
    nonsingular = make_nonsingular(padded, spec.delta, int(rng.integers(2 ** 31)))
    report = is_nonsingular(nonsingular)
    return nonsingular, report


def _sweep_net(spec: NonSingularSweepSpec, job: tuple[int, int]) -> EncodedOutcome:
    """One net's report entry, encoded here so the parent receives text, not
    the arrays of its chains."""
    index, net_seed = job
    rng = np.random.default_rng(net_seed + 1)
    net, report = build_random_nonsingular(spec, index, net_seed)
    if not report.verdict:
        raise ConstructionError(
            f"net {index}: construction produced a singular network: {report}")
    fld = sample_grid(network_scalar_fn(net), spec.window, (spec.resolution, spec.resolution))
    p5, p95 = np.percentile(fld.values, [5.0, 95.0])
    levels = rng.uniform(p5, p95, spec.levels_per_net)
    entries = tuple(analyze_level(level, fld) for level in levels)
    return encode_outcome(SeedOutcome(seed=index, levels=entries, nonsingularity=report,
                                      network=network_to_dict(net)).to_dict())


def random_nonsingular_sweep(spec: NonSingularSweepSpec) -> tuple[EncodedOutcome, ...]:
    """Probe level sets of ``count`` random non-singular networks and return
    each net's report entry, in net order.

    A network that fails the membership check after construction raises
    ConstructionError rather than contaminating the sweep.  Each worker
    encodes the entries it computed, so the report's text is written on
    every core.
    """
    master = np.random.default_rng(spec.seed)
    net_seeds = [int(s) for s in master.integers(0, 2 ** 62, size=spec.count)]
    return tuple(parallel_map(partial(_sweep_net, spec), list(enumerate(net_seeds))))


# ---------------------------------------------------------------------------
# composition tolerance


class CompositionToleranceError(RuntimeError):
    """delta search hit the floor without the composition staying within eps."""


@dataclass(frozen=True)
class FunctionLink:
    """Adapter giving a plain callable a Network's (input_dim, output_dim) link interface."""

    fn: object
    input_dim: int
    output_dim: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)


@dataclass(frozen=True)
class CompositionReport:
    delta: float
    max_deviation: float
    untested: bool
    domains: tuple[Window, ...]
    attempts: tuple[dict, ...]


DELTA_FLOOR = 1e-12
COMPOSITION_GRID_PER_AXIS = 21  # lattice points per window axis


def composition_tolerance_check(chain, window: Window, eps: float, trials: int,
                                seed: int) -> CompositionReport:
    """Search the largest delta = eps/2^k such that perturbing every link by at
    most delta (sup norm on its domain) keeps the composite within eps of the
    original on ``window``.

    The domain of link i is the bounding box of the image of the window under
    the partial composition, inflated by eps (a compact superset of the closed
    eps-neighborhood of the image).  Perturbations are random compact bumps of
    amplitude up to delta; with trials = 0 the first candidate delta passes
    vacuously and the report is flagged untested.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not chain:
        raise ValueError("chain must contain at least one link")
    for a, b in zip(chain[:-1], chain[1:]):
        if a.output_dim != b.input_dim:
            raise ValueError(f"chain links do not compose: {a.output_dim} -> {b.input_dim}")
    if window.dim != chain[0].input_dim:
        raise ValueError("window dimension does not match the first link")

    points = window.lattice((COMPOSITION_GRID_PER_AXIS,) * window.dim)

    domains = [Window(window.lo.copy(), window.hi.copy())]
    stage = points
    for link in chain:
        stage = np.asarray(link(stage), dtype=np.float64)
        domains.append(Window(stage.min(axis=0) - eps, stage.max(axis=0) + eps))
    baseline = stage
    link_domains = domains[:-1]  # domain of link i

    rng = np.random.default_rng(seed)
    attempts = []
    delta = eps / 2.0
    while delta >= DELTA_FLOOR:
        worst = 0.0
        failed = False
        for _ in range(trials):
            y = points
            for link, dom in zip(chain, link_domains):
                center = rng.uniform(dom.lo, dom.hi)
                width = np.maximum(dom.extent * rng.uniform(0.2, 0.6, size=dom.dim), 1e-9)
                direction = rng.normal(size=link.output_dim)
                direction /= np.linalg.norm(direction)
                amplitude = delta * rng.uniform(0.5, 1.0)
                # the bump amplitude (1 - |u|^2)^2 direction has sup norm amplitude <= delta
                u = (y - center) / width
                r2 = np.sum(u * u, axis=1)
                profile = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 2, 0.0)
                y = np.asarray(link(y), dtype=np.float64) + amplitude * profile[:, None] * direction
            deviation = float(np.max(np.linalg.norm(y - baseline, axis=1)))
            worst = max(worst, deviation)
            if deviation >= eps:
                failed = True
                break
        attempts.append({"delta": delta, "passed": not failed, "max_deviation": worst})
        if not failed:
            return CompositionReport(delta, worst, trials == 0, tuple(domains), tuple(attempts))
        delta /= 2.0
    raise CompositionToleranceError(
        f"no delta above {DELTA_FLOOR} keeps the composition within {eps}; "
        "the chain may be discontinuous or the window too small")
