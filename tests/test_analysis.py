import dataclasses
import json
import math
import os

import numpy as np
import pytest

from leveltopo import (SIGMOID, Classification, CompositionToleranceError,
                       ConstructionError, ExperimentSpec, FunctionLink, NonSingularSweepSpec,
                       TrainConfig, Window, analyze_level, classify_component,
                       composition_tolerance_check, one_to_one_relu, random_nonsingular_sweep,
                       run_experiment, sample_grid)
from leveltopo.analysis import THREADS_ENV, auto_window, reproduction_spec
from leveltopo import analysis, cli
from leveltopo.cli import validate_report
from leveltopo.reports import KIND_REPRODUCE_NARROW, KIND_REPRODUCE_WIDE, dumps_report, make_report
from leveltopo.network import network_from_dict
from leveltopo.training import DECISION_CUT, Dataset, init_weights, loss_and_grad, train_stack


def circle_fn(points):
    return points[:, 0] ** 2 + points[:, 1] ** 2 - 1.0


def line_fn(points):
    return points[:, 0]


def window2(half=2.0):
    return Window(np.array([-half, -half]), np.array([half, half]))


def arc_fn(points):
    # a circle centred outside the window: its arc inside leaves the frame
    return (points[:, 0] - 3.0) ** 2 + points[:, 1] ** 2 - 4.0


class TestAnalyzeLevel:
    @pytest.mark.parametrize("f,expected", [
        (circle_fn, (Classification.BOUNDED,)),
        (line_fn, (Classification.BOUNDARY_TOUCHING,)),
        (arc_fn, (Classification.BOUNDARY_TOUCHING,)),
    ], ids=["circle", "line", "arc-leaving-the-frame"])
    def test_classified_on_the_window(self, f, expected):
        entry = analyze_level(0.0, sample_grid(f, window2(), (101, 101)))
        assert entry["final_classifications"] == [c.value for c in expected]
        assert entry["bounded_final"] == expected.count(Classification.BOUNDED)

    def test_final_classifications_are_the_components_own(self):
        for f in (circle_fn, line_fn, arc_fn):
            entry = analyze_level(0.0, sample_grid(f, window2(), (101, 101)))
            rep = entry["report"]
            assert entry["final_classifications"] == [
                classify_component(c["polylines"][0], Window(**rep["window"]),
                                   rep["boundary_tol"]).value for c in rep["components"]]


class TestSubCellLoop:
    # a spike narrower than a cell on node (9, 9) of a 20^2 grid on [-1,1]^2:
    # a closed loop clear of the frame, bounded at an even resolution too
    H = 2.0 / 19.0
    NODE = np.array([-1.0 + 9 * H, -1.0 + 9 * H])

    def spike(self, points):
        return np.exp(-np.sum((points - self.NODE) ** 2, axis=1) / (0.1 * self.H) ** 2)

    def hill(self, points):
        return np.exp(-np.sum((points - np.array([0.6, -0.55])) ** 2, axis=1) / 0.04)

    def analyze(self, f):
        window = Window(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        return analyze_level(0.5, sample_grid(f, window, (20, 20)))

    def test_spike_at_an_even_resolution_stays_bounded(self):
        entry = self.analyze(self.spike)
        assert entry["final_classifications"] == ["bounded"]
        assert entry["bounded_final"] == 1

    def test_spike_next_to_a_hill_stays_bounded(self):
        entry = self.analyze(lambda p: self.spike(p) + self.hill(p))
        assert entry["final_classifications"] == ["bounded", "bounded"]


class TestRunExperiment:
    def tiny_spec(self, seeds=(0, 1), **over):
        cfg = TrainConfig(learning_rate=0.05, steps=300, seed=0, target_loss=0.05)
        base = dict(name="tiny-wide", arch=(2, 3, 1), activation=SIGMOID, train=cfg,
                    seeds=tuple(seeds), n_inner=60, n_ring=120, resolution=81)
        base.update(over)
        return ExperimentSpec(**base)

    def test_empty_seed_list(self):
        result = run_experiment(self.tiny_spec(seeds=()))
        assert result.outcomes == ()

    def test_aggregates_equal_sums(self):
        result = run_experiment(self.tiny_spec())
        for o in result.outcomes:
            d = o.to_dict()
            assert d["bounded_final"] == sum(lv["bounded_final"] for lv in o.levels)
            assert d["boundary_final"] == sum(lv["boundary_final"] for lv in o.levels)

    def test_outcomes_in_seed_order_with_metrics(self):
        result = run_experiment(self.tiny_spec(seeds=(3, 1)))
        assert [o.seed for o in result.outcomes] == [3, 1]
        for o in result.outcomes:
            assert o.error is None
            assert o.final_loss is not None and o.accuracy is not None
            assert o.network is not None
            assert len(o.levels) == 1

    def test_parallel_matches_serial(self, monkeypatch):
        spec = self.tiny_spec()
        monkeypatch.setenv("LEVELSET_PROBE_THREADS", "1")
        serial = run_experiment(spec)
        monkeypatch.setenv("LEVELSET_PROBE_THREADS", "2")
        parallel = run_experiment(spec)
        assert [o.to_dict() for o in serial.outcomes] == \
            [o.to_dict() for o in parallel.outcomes]

    @pytest.mark.parametrize("fig,kind", [("3a", KIND_REPRODUCE_NARROW),
                                          ("3b", KIND_REPRODUCE_WIDE)])
    def test_report_bytes_independent_of_worker_count(self, monkeypatch, fig, kind):
        # one worker trains all five seeds as one stack, two workers as 2 + 3
        preset = reproduction_spec(fig, (4, 0, 3, 1, 2))
        spec = dataclasses.replace(preset, train=dataclasses.replace(preset.train, steps=150),
                                   resolution=61)

        def report_bytes():
            result = run_experiment(spec)
            return dumps_report(make_report(
                kind, {"spec": spec.to_dict(), "deterministic": True},
                [o.to_dict() for o in result.outcomes], True, 0.0))

        monkeypatch.setenv("LEVELSET_PROBE_THREADS", "1")
        serial = report_bytes()
        monkeypatch.setenv("LEVELSET_PROBE_THREADS", "2")
        assert report_bytes() == serial

    def test_outcomes_do_not_depend_on_the_stack_size(self, monkeypatch):
        preset = reproduction_spec("3b", (4, 0, 3, 1, 2))
        spec = dataclasses.replace(preset, train=dataclasses.replace(preset.train, steps=150),
                                   resolution=61)
        outcomes = {}
        for stack_seeds in (1, analysis.STACK_SEEDS):
            monkeypatch.setattr(analysis, "STACK_SEEDS", stack_seeds)
            for threads in ("1", "2"):
                monkeypatch.setenv(THREADS_ENV, threads)
                outcomes[stack_seeds, threads] = [o.to_dict()
                                                  for o in run_experiment(spec).outcomes]
        first = outcomes[1, "1"]
        assert [o["seed"] for o in first] == [4, 0, 3, 1, 2]
        assert all(runs == first for runs in outcomes.values())

    def test_final_loss_is_the_stored_networks_loss(self):
        """Each trained seed stores the loss of the network it stores; a seed
        that stopped early stores the loss it stopped at, bit for bit."""
        preset = reproduction_spec("3b", (0, 1, 2))
        spec = dataclasses.replace(preset, train=dataclasses.replace(preset.train, steps=300),
                                   resolution=41)
        histories = [history for _, history in train_stack(
            [init_weights(list(spec.arch), spec.activation, seed) for seed in spec.seeds],
            [spec.dataset(seed) for seed in spec.seeds],
            spec.train)]
        outcomes = run_experiment(spec).outcomes
        assert [len(h) for h in histories] == [169, 178, 300]
        for o, history in zip(outcomes, histories):
            data = spec.dataset(o.seed)
            net = network_from_dict(o.network)
            assert o.final_loss == loss_and_grad(net, data.points, data.labels, spec.train.loss)[0]
            assert o.steps_run == len(history)
        assert [o.final_loss == h[-1] for o, h in zip(outcomes, histories)] == [True, True, False]

    def test_levels_default_to_decision_cut(self):
        assert self.tiny_spec().levels == (DECISION_CUT,) == (0.5,)
        assert self.tiny_spec().to_dict()["levels"] == [0.5]
        assert self.tiny_spec(levels=(0.25, 0.75)).to_dict()["levels"] == [0.25, 0.75]

    def test_auto_window_doubles_the_data_box(self):
        points = np.array([[-2.0, -1.0], [2.0, 3.0], [0.0, 0.0]])
        window = auto_window(Dataset(points, np.array([0, 1, 0])))
        np.testing.assert_array_equal(window.lo, [-4.0, -3.0])
        np.testing.assert_array_equal(window.hi, [4.0, 5.0])

    def test_diverged_seeds_are_recorded(self, diverging_spec, monkeypatch):
        result = run_experiment(diverging_spec)
        assert [o.seed for o in result.outcomes] == [0, 1]
        for o in result.outcomes:
            assert o.error == "loss diverged at step 2"
            assert o.steps_run == 1 and np.isfinite(o.final_loss)
            assert (o.converged, o.accuracy, o.network) == (None, None, None)
            assert o.levels == ()
        report = make_report(KIND_REPRODUCE_WIDE, {"paper_fig": "3b",
                                                   "spec": diverging_spec.to_dict(),
                                                   "deterministic": True},
                             [o.to_dict() for o in result.outcomes], True, 0.0)
        assert report["verdicts"][KIND_REPRODUCE_WIDE]["status"] == "FAIL"
        # the report of the diverging spec, run as the 3b preset
        monkeypatch.setattr(cli, "reproduction_spec", lambda fig, seeds: diverging_spec)
        assert validate_report(report) == []


class TestWorkerCount:
    def test_defaults_to_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert analysis._worker_count(100) == 3
        assert analysis._worker_count(2) == 2

    def test_machine_cores_where_affinity_is_unavailable(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert analysis._worker_count(100) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert analysis._worker_count(100) == 1

    def test_environment_caps_the_workers(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv(THREADS_ENV, "2")
        assert analysis._worker_count(100) == 2


class TestSeedStacks:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_stack_rule(self, workers):
        for n in range(workers, 80):
            seeds = tuple(range(100, 100 + n))
            stacks = analysis._seed_stacks(seeds, workers)
            sizes = [len(stack) for stack in stacks]
            assert max(sizes) <= analysis.STACK_SEEDS, n
            assert max(sizes) - min(sizes) <= 1, n
            assert len(stacks) % workers == 0, n
            # the fewest such stacks: one round of stacks fewer would overflow one
            fewer = len(stacks) - workers
            assert fewer == 0 or math.ceil(n / fewer) > analysis.STACK_SEEDS, n
            # contiguous, in seed order
            assert tuple(seed for stack in stacks for seed in stack) == seeds, n

    @pytest.mark.parametrize("n,workers,sizes", [
        (6, 2, [3, 3]),        # narrow-3a on two cores
        (20, 2, [10, 10]),     # the acceptance sweeps
        (100, 2, [10] * 10),   # wide-3b
        (25, 1, [8, 8, 9]),
    ])
    def test_sizes(self, n, workers, sizes):
        assert [len(s) for s in analysis._seed_stacks(tuple(range(n)), workers)] == sizes

    def test_empty_seed_list(self):
        assert analysis._seed_stacks((), 1) == []
        assert analysis._seed_stacks((), 2) == []

    def test_fewer_seeds_than_workers_leave_no_empty_stack(self):
        assert analysis._seed_stacks((7, 8), 4) == [(7,), (8,)]


class TestReproductionSpecs:
    def test_narrow_preset(self):
        spec = reproduction_spec("3a", (0, 1, 2))
        assert spec.arch == (2, 2, 2, 2, 2, 2, 2, 1)
        assert spec.regime == "skinny"
        assert spec.train.steps == 20000
        assert spec.seeds == (0, 1, 2)

    def test_wide_preset(self):
        spec = reproduction_spec("3b", (0,))
        assert spec.arch == (2, 3, 1)
        assert spec.regime == "wide"

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            reproduction_spec("4c", (0,))


class TestNonSingularSweep:
    def test_small_sweep_finds_nothing_bounded(self):
        spec = NonSingularSweepSpec(count=4, levels_per_net=2, resolution=81, seed=3)
        entries = random_nonsingular_sweep(spec)
        assert [e["seed"] for e in entries] == [0, 1, 2, 3]
        assert all(e["bounded_final"] == 0 for e in entries)
        for e in entries:
            assert json.loads(e.text)["nonsingularity"]["verdict"] is True

    def test_saddle_cells_split_by_the_function(self):
        # nets 15 and 28 each have one saddle cell whose corner average is
        # on the other side of the level from the net's value at its centre;
        # the average closed a 4-segment loop there
        spec = NonSingularSweepSpec(activation=one_to_one_relu(3), count=30, seed=5)
        assert sum(e["bounded_final"] for e in random_nonsingular_sweep(spec)) == 0

    def test_entries_do_not_depend_on_the_worker_count(self, monkeypatch):
        spec = NonSingularSweepSpec(count=6, levels_per_net=2, resolution=81, seed=4)
        texts = {}
        for threads in ("1", "2"):
            monkeypatch.setenv(THREADS_ENV, threads)
            texts[threads] = [e.text for e in random_nonsingular_sweep(spec)]
        assert texts["1"] == texts["2"]
        assert len(texts["1"]) == 6

    def test_first_nets_do_not_depend_on_the_count(self):
        # validate-report reruns a sweep for as many nets as its report holds
        spec = NonSingularSweepSpec(count=5, levels_per_net=2, resolution=41, seed=2)
        texts = [e.text for e in random_nonsingular_sweep(spec)]
        for count in (1, 3):
            shorter = random_nonsingular_sweep(dataclasses.replace(spec, count=count))
            assert [e.text for e in shorter] == texts[:count]

    def test_count_zero(self):
        spec = NonSingularSweepSpec(count=0)
        assert random_nonsingular_sweep(spec) == ()

    def test_injected_singular_net_flagged(self, singular_second_net):
        spec = NonSingularSweepSpec(count=2, levels_per_net=1, resolution=41, seed=0)
        with pytest.raises(ConstructionError):
            random_nonsingular_sweep(spec)

    def test_depths_cycle(self):
        spec = NonSingularSweepSpec(count=4, depths=(1, 3), levels_per_net=1,
                                    resolution=41, seed=1)
        depths = [len(json.loads(e.text)["nonsingularity"]["determinants"])
                  for e in random_nonsingular_sweep(spec)]
        # one square matrix per layer except the head: with d hidden layers
        # that is d (input map included, head excluded)
        assert depths == [1, 3, 1, 3]

    def test_requires_one_to_one_activation(self):
        from leveltopo import RELU

        with pytest.raises(ValueError):
            NonSingularSweepSpec(activation=RELU)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValueError, match=r"delta \(--delta\) must be finite and positive"):
            NonSingularSweepSpec(delta=delta)


class TestCompositionTolerance:
    def test_identity_chain(self):
        win = Window(np.array([0.0]), np.array([1.0]))
        link = FunctionLink(lambda x: x, 1, 1)
        report = composition_tolerance_check([link], win, eps=0.1, trials=50, seed=0)
        assert report.delta == 0.05
        assert report.max_deviation < 0.1
        assert not report.untested

    def test_doubling_chain_needs_smaller_delta(self):
        # two links scaling by 2: a delta-perturbation of the first link is
        # amplified to 2*delta by the second, plus the second link's own
        # delta, so deviation approaches 3*delta and eps/2 must fail
        win = Window(np.array([0.0]), np.array([1.0]))
        link = FunctionLink(lambda x: 2.0 * x, 1, 1)
        report = composition_tolerance_check([link, link], win, eps=0.1, trials=50,
                                             seed=0)
        assert report.delta == 0.025  # eps/4: first halving below eps/3
        assert report.max_deviation < 0.1
        assert report.attempts[0]["passed"] is False

    def test_trials_zero_vacuous_and_flagged(self):
        win = Window(np.array([0.0]), np.array([1.0]))
        link = FunctionLink(lambda x: 2.0 * x, 1, 1)
        report = composition_tolerance_check([link, link], win, eps=0.1, trials=0,
                                             seed=0)
        assert report.delta == 0.05 and report.untested

    def test_negative_trials_rejected(self):
        win = Window(np.array([0.0]), np.array([1.0]))
        link = FunctionLink(lambda x: 2.0 * x, 1, 1)
        with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
            composition_tolerance_check([link, link], win, eps=0.1, trials=-3, seed=0)

    def test_networks_are_valid_links(self):
        from leveltopo import init_weights

        win = window2()
        chain = [init_weights([2, 2], SIGMOID, s) for s in (0, 1, 2)]
        report = composition_tolerance_check(chain, win, eps=0.1, trials=20, seed=4)
        assert report.delta > 0 and report.max_deviation < 0.1
        assert len(report.domains) == 4

    def test_discontinuous_link_fails(self):
        # the first link feeds the second link's jump point: any perturbation
        # of the first can push grid points across the jump, so no delta works
        win = Window(np.array([0.0]), np.array([1.0]))
        feed = FunctionLink(lambda x: x, 1, 1)
        step = FunctionLink(lambda x: np.where(x >= 0.5, 1000.0, -1000.0), 1, 1)
        with pytest.raises(CompositionToleranceError):
            composition_tolerance_check([feed, step], win, eps=0.1, trials=200,
                                        seed=0)

    @pytest.mark.parametrize("chain,window,eps,message", [
        ([FunctionLink(lambda x: x, 1, 1)], Window(np.array([0.0]), np.array([1.0])), 0.0,
         "eps must be positive"),
        ([FunctionLink(lambda x: x, 1, 1)], Window(np.array([0.0]), np.array([1.0])), -0.1,
         "eps must be positive"),
        ([], Window(np.array([0.0]), np.array([1.0])), 0.1,
         "chain must contain at least one link"),
        ([FunctionLink(lambda x: x, 1, 1)], window2(), 0.1,
         "window dimension does not match the first link"),
    ], ids=["eps-zero", "eps-negative", "empty-chain", "window-dim"])
    def test_bad_arguments_rejected(self, chain, window, eps, message):
        with pytest.raises(ValueError, match=message):
            composition_tolerance_check(chain, window, eps=eps, trials=1, seed=0)

    def test_incomposable_chain_rejected(self):
        win = window2()
        a = FunctionLink(lambda x: x, 2, 2)
        b = FunctionLink(lambda x: x[:, :1], 3, 1)
        with pytest.raises(ValueError):
            composition_tolerance_check([a, b], win, eps=0.1, trials=1, seed=0)
