"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight report-producing runs (criteria 3, 4, 5) are built once in
module fixtures through the same deterministic report path the CLI uses (a
sweep's worker-encoded entries, a reproduction's outcome dicts, spliced by
``dumps_report``); the criteria read the reports' outcomes, criterion 9
rebuilds them from scratch and compares bytes, and ``validate_report``
rebuilds each one from its raw members and finds no member that differs.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from leveltopo import (RELU, SIGMOID, TANH, FunctionLink, Loss, NonSingularSweepSpec,
                       Window, check_injective_on_grid, composition_tolerance_check,
                       decompose, forward_batch, init_weights, is_nonsingular,
                       loss_and_grad, make_nonsingular, network_scalar_fn,
                       one_to_one_relu, pad_to_width, random_nonsingular_sweep,
                       run_experiment, sample_grid, uniform_deviation)
from leveltopo.activations import one_to_one_relu_bound
from leveltopo.analysis import reproduction_spec
from leveltopo.cli import validate_report
from leveltopo.contours import band_oracle_compare
from leveltopo.fields import sample_noncritical_levels
from leveltopo.reports import (KIND_REPRODUCE_NARROW, KIND_REPRODUCE_WIDE, KIND_SWEEP,
                               dumps_report, make_report, report_passed)

from test_reports import PINNED_ON, report_digest
from test_training import fd_loss_gradient, max_relative_error, random_case


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} {name}: {detail}")


# ---------------------------------------------------------------------------
# shared heavyweight runs (criteria 3-5, reused by criterion 9)


# kind -> (the spec it runs, its config beyond the spec): the runs of
# `sweep-nonsingular --count 100 --seed 0` and `reproduce --paper-fig 3a|3b`
RUNS = {
    KIND_SWEEP: (NonSingularSweepSpec(depths=(1, 2, 3, 4, 5, 6), activation=SIGMOID,
                                      count=100, levels_per_net=5,
                                      window=Window(np.array([-4.0, -4.0]),
                                                    np.array([4.0, 4.0])),
                                      resolution=201, seed=0), {}),
    KIND_REPRODUCE_NARROW: (reproduction_spec("3a", tuple(range(20))), {"paper_fig": "3a"}),
    KIND_REPRODUCE_WIDE: (reproduction_spec("3b", tuple(range(20))), {"paper_fig": "3b"}),
}


def build_report(kind: str) -> SimpleNamespace:
    """Run ``kind``'s spec and build its deterministic report as the CLI does:
    a sweep hands ``make_report`` the entries it returns, a reproduction its
    outcomes' dicts.  The criteria read the report's outcomes."""
    spec, config = RUNS[kind]
    t0 = time.perf_counter()
    if kind == KIND_SWEEP:
        outcomes = list(random_nonsingular_sweep(spec))
    else:
        outcomes = [o.to_dict() for o in run_experiment(spec).outcomes]
    seconds = time.perf_counter() - t0
    report = make_report(kind, {**config, "spec": spec.to_dict(), "deterministic": True},
                         outcomes, True, seconds)
    return SimpleNamespace(report=report, data=dumps_report(report), seconds=seconds)


@pytest.fixture(scope="module")
def sweep_run():
    return build_report(KIND_SWEEP)


@pytest.fixture(scope="module")
def narrow_run():
    return build_report(KIND_REPRODUCE_NARROW)


@pytest.fixture(scope="module")
def wide_run():
    return build_report(KIND_REPRODUCE_WIDE)


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    cases = [
        (SIGMOID, Loss.BCE, True, 0.0),
        (SIGMOID, Loss.MSE, True, 0.0),
        (TANH, Loss.MSE, True, 0.0),
        (TANH, Loss.MSE, False, 0.0),
        (RELU, Loss.MSE, False, 1e-3),
        (one_to_one_relu(2), Loss.MSE, False, 1e-3),
        (one_to_one_relu(5), Loss.MSE, True, 1e-3),
    ]
    rng = np.random.default_rng(2718)
    worst = 0.0
    checked = 0
    while checked < 50:
        activation, loss, final, margin = cases[checked % len(cases)]
        net, x, y = random_case(rng, activation, loss, final, margin)
        _, analytic = loss_and_grad(net, x, y, loss)
        numeric = fd_loss_gradient(net, x, y, loss, h=1e-5)
        worst = max(worst, max_relative_error(analytic, numeric))
        checked += 1
    seconds = time.perf_counter() - t0
    ok = worst < 1e-4 and seconds < 10.0
    _line(1, "gradient-correctness",
          ok, f"50 nets, max_rel_err={worst:.3g} (<1e-4), {seconds:.1f}s (<10s)")
    assert worst < 1e-4
    assert seconds < 10.0


def test_criterion_2_uniform_approximation():
    t0 = time.perf_counter()
    sharpnesses = (1, 2, 5, 10, 100)
    devs = [uniform_deviation(one_to_one_relu(n), RELU, (-1e6, 1e6), 100001)
            for n in sharpnesses]
    seconds = time.perf_counter() - t0
    within = all(0 < dev <= one_to_one_relu_bound(n)
                 for n, dev in zip(sharpnesses, devs))
    decreasing = all(a > b for a, b in zip(devs, devs[1:]))
    ok = within and decreasing and seconds < 1.0
    _line(2, "uniform-approximation", ok,
          f"devs={['%.4g' % d for d in devs]} bounds pi/(2n), "
          f"strictly decreasing={decreasing}, {seconds:.2f}s (<1s)")
    assert within
    assert decreasing
    assert seconds < 1.0


def test_criterion_3_nonsingular_level_sets(sweep_run):
    outcomes = sweep_run.report["outcomes"]
    bounded = sum(e["bounded_final"] for e in outcomes)
    nets = len(outcomes)
    levels = sum(len(e["levels"]) for e in outcomes)
    ok = bounded == 0 and nets == 100 and levels == 500 and sweep_run.seconds < 60.0
    _line(3, "nonsingular-level-sets-unbounded", ok,
          f"{nets} nets, {levels} levels, bounded={bounded} (==0), "
          f"{sweep_run.seconds:.1f}s (<60s)")
    assert bounded == 0
    assert report_passed(sweep_run.report)
    assert sweep_run.seconds < 60.0


@pytest.mark.slow
def test_criterion_4_narrow_reproduction(narrow_run):
    outcomes = narrow_run.report["outcomes"]
    converged = [o for o in outcomes if o["error"] is None and o["converged"]]
    bounded = sum(o["bounded_final"] for o in converged)
    ok = (len(converged) >= 10 and bounded == 0 and narrow_run.seconds < 300.0)
    _line(4, "deep-narrow-reproduction", ok,
          f"converged={len(converged)}/20 (>=10), bounded-in-converged={bounded} "
          f"(==0), {narrow_run.seconds:.0f}s (<300s)")
    assert len(converged) >= 10
    assert bounded == 0
    assert report_passed(narrow_run.report)
    assert narrow_run.seconds < 300.0


def test_criterion_5_wide_reproduction(wide_run):
    outcomes = wide_run.report["outcomes"]
    accurate = [o for o in outcomes
                if o["error"] is None and o["accuracy"] is not None and o["accuracy"] >= 0.95]
    with_loop = [o for o in accurate
                 if any(lv["bounded_enclosing_origin"] >= 1 for lv in o["levels"])]
    need_loops = math.ceil(0.9 * len(accurate)) if accurate else 0
    ok = (len(accurate) >= 18 and len(with_loop) >= need_loops
          and wide_run.seconds < 180.0)
    _line(5, "shallow-wide-reproduction", ok,
          f"accurate={len(accurate)}/20 (>=18), origin-loops={len(with_loop)}/"
          f"{len(accurate)} (>={need_loops}), {wide_run.seconds:.0f}s (<180s)")
    assert len(accurate) >= 18
    assert len(with_loop) >= need_loops
    assert report_passed(wide_run.report)
    assert wide_run.seconds < 180.0


def test_wide_reproduction_origin_loop_on_every_seed(wide_run):
    # saddle cells are split by the trained net's value at their centre;
    # that must leave every 3b seed its loop around the origin
    outcomes = wide_run.report["outcomes"]
    assert all(any(lv["bounded_enclosing_origin"] >= 1 for lv in o["levels"])
               for o in outcomes)
    assert len(outcomes) == 20


@pytest.mark.slow
def test_fixture_reports_validate(sweep_run, narrow_run, wide_run):
    # every member is raw data or follows from it; the sweep's outcomes are
    # worker-encoded entries, so its written text is decoded
    for report in (json.loads(sweep_run.data), narrow_run.report, wide_run.report):
        assert validate_report(report) == []


# the sha256 of each fixture report's text without its `versions` member
FIXTURE_DIGESTS = {
    KIND_SWEEP: "6872f0df0ae9d6efa2f91b6edd6de0aa6cee2b37898df5e2bd0d50df0014dcdf",
    KIND_REPRODUCE_NARROW: "7b1664565479815f4ef41853aab532f53b6703fb95848bf37f4628fe99c711b5",
    KIND_REPRODUCE_WIDE: "c8c4cebc0c515cfeb6057f65691b9bbb8cbd3bda705ca8c566ca817960046124",
}


@pytest.mark.slow
def test_fixture_reports_are_pinned(sweep_run, narrow_run, wide_run):
    digests = {run.report["kind"]: report_digest(run.report)
               for run in (sweep_run, narrow_run, wide_run)}
    changed = "; ".join(f"{kind} is now {digest}" for kind, digest in digests.items()
                        if FIXTURE_DIGESTS.get(kind) != digest)
    assert digests == FIXTURE_DIGESTS, (
        f"a fixture report changed ({changed}); the pinned digests hold for {PINNED_ON}")


def test_criterion_6_contour_region_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    window = Window(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    checks = 0
    disagreements = []
    for k in range(20):
        depth = int(rng.integers(1, 4))
        arch = [2] + [int(rng.integers(2, 4)) for _ in range(depth)] + [1]
        net = init_weights(arch, SIGMOID, int(rng.integers(2 ** 31)))
        field = sample_grid(network_scalar_fn(net), window, (201, 201))
        delta = 1e-3 * float(np.ptp(field.values))
        for level in sample_noncritical_levels(field, 5, rng):
            checks += 1
            outcome = band_oracle_compare(field, float(level), delta)
            if not outcome["agree"]:
                disagreements.append((k, float(level), outcome["issues"]))
    seconds = time.perf_counter() - t0
    ok = checks == 100 and not disagreements
    _line(6, "contour-region-oracle-equivalence", ok,
          f"{checks} (net, level) checks, disagreements={len(disagreements)} (==0), "
          f"{seconds:.1f}s")
    assert checks == 100
    assert disagreements == []


def test_criterion_7_construction_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    window = Window(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    point_rng = np.random.default_rng(88)
    pad_exact = True
    all_verdicts = True
    all_idempotent = True
    all_injective = True
    nets = 0
    for k in range(12):
        activation = SIGMOID if k % 2 == 0 else one_to_one_relu(3 + k % 4)
        depth = int(rng.integers(1, 7))
        widths = [2] + [int(rng.integers(1, 3)) for _ in range(depth)] + [1]
        net = init_weights(widths, activation, int(rng.integers(2 ** 31)))
        padded = pad_to_width(net, 2)
        points = point_rng.uniform(-4.0, 4.0, size=(1000, 2))
        if not np.array_equal(forward_batch(net, points),
                              forward_batch(padded, points)):
            pad_exact = False
        fixed = make_nonsingular(padded, 1e-3, seed=int(rng.integers(2 ** 31)))
        if not is_nonsingular(fixed).verdict:
            all_verdicts = False
        if make_nonsingular(fixed, 1e-3, seed=int(rng.integers(2 ** 31))) is not fixed:
            all_idempotent = False
        trunk, _ = decompose(fixed)
        if not check_injective_on_grid(trunk, window, 201):
            all_injective = False
        nets += 1
    seconds = time.perf_counter() - t0
    ok = pad_exact and all_verdicts and all_idempotent and all_injective
    _line(7, "construction-correctness", ok,
          f"{nets} nets: pad-bitwise={pad_exact}, verdicts={all_verdicts}, "
          f"idempotent={all_idempotent}, trunks-injective-201^2={all_injective}, "
          f"{seconds:.1f}s")
    assert pad_exact
    assert all_verdicts
    assert all_idempotent
    assert all_injective


def test_criterion_8_composition_tolerance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    window = Window(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))

    def affine_sigmoid_link():
        w = rng.normal(0.0, 1.0, size=(2, 2))
        b = rng.normal(0.0, 0.5, size=2)
        def fn(x, w=w, b=b):
            return 1.0 / (1.0 + np.exp(-(x @ w.T + b)))
        return FunctionLink(fn, 2, 2)

    deltas = []
    max_devs = []
    for trial in range(10):
        chain = [affine_sigmoid_link() for _ in range(3)]
        report = composition_tolerance_check(chain, window, eps=0.1, trials=50,
                                             seed=1000 + trial)
        deltas.append(report.delta)
        max_devs.append(report.max_deviation)
    seconds = time.perf_counter() - t0
    ok = all(d > 0 for d in deltas) and all(m < 0.1 for m in max_devs)
    _line(8, "composition-tolerance", ok,
          f"10 chains: deltas in [{min(deltas):.3g}, {max(deltas):.3g}] (>0), "
          f"max_dev={max(max_devs):.3g} (<0.1), {seconds:.1f}s")
    assert all(d > 0 for d in deltas)
    assert all(m < 0.1 for m in max_devs)


@pytest.mark.slow
def test_criterion_9_determinism(sweep_run, narrow_run, wide_run):
    t0 = time.perf_counter()
    rebuilt_sweep = build_report(KIND_SWEEP)
    rebuilt_narrow = build_report(KIND_REPRODUCE_NARROW)
    rebuilt_wide = build_report(KIND_REPRODUCE_WIDE)
    seconds = time.perf_counter() - t0
    same = (rebuilt_sweep.data == sweep_run.data,
            rebuilt_narrow.data == narrow_run.data,
            rebuilt_wide.data == wide_run.data)
    ok = all(same)
    _line(9, "determinism", ok,
          f"byte-identical reports on rerun: sweep={same[0]}, narrow={same[1]}, "
          f"wide={same[2]}, {seconds:.0f}s")
    assert all(same)
