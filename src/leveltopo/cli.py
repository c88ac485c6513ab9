"""Command-line front end.

Subcommands: gen-data, train, analyze, reproduce, sweep-nonsingular,
validate-report.  Exit codes: 0 success/PASS, 1 FAIL (a checked property was
violated), 2 usage or configuration error, 3 runtime error.  The
LEVELSET_PROBE_THREADS environment variable caps seed-level parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .activations import Activation, ActivationKind
from .analysis import (ConstructionError, ExperimentSpec, NonSingularSweepSpec, SeedOutcome,
                       analyze_outcome, auto_window, reproduction_spec, run_experiment,
                       random_nonsingular_sweep, trained_outcome)
from .network import Window, _plain, load_network, network_from_dict, save_network
from .nonsingular import NonSingularizationError
from .reports import (FIG_KINDS, KIND_ANALYZE, KIND_REPRODUCE_NARROW, KIND_REPRODUCE_WIDE,
                      KIND_SWEEP, SCHEMA_VERSION, _json, dumps_report, load_report,
                      make_report, report_passed, verdict_lines, write_report)
from .svgplot import outcome_svg
from .training import (DECISION_CUT, Loss, Optimizer, TrainConfig, TrainingDiverged,
                       accuracy, gen_ring_dataset, init_weights, load_dataset, save_dataset,
                       train)

RUNTIME_ERRORS = (TrainingDiverged, ConstructionError, NonSingularizationError,
                  OSError, MemoryError)
ABSENT = object()  # a member that one of two compared reports lacks


def parse_activation(text: str) -> Activation:
    name, _, sharp = text.partition(":")
    try:
        kind = ActivationKind(name)
    except ValueError:
        raise ValueError(f"unknown activation {text!r}; expected sigmoid, tanh, relu "
                         "or one_to_one_relu:<n>") from None
    if kind is ActivationKind.ONE_TO_ONE_RELU:
        if not sharp:
            raise ValueError("one_to_one_relu needs a sharpness, e.g. one_to_one_relu:5")
        return Activation(kind, int(sharp))
    if sharp:
        raise ValueError(f"{name} takes no sharpness parameter")
    return Activation(kind)


def parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"must be a non-negative integer, got {seed}")
    return seed


def parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def parse_box(text: str) -> Window:
    if text == "auto":
        raise ValueError("auto (the doubled data box) needs data; give x_lo,x_hi,y_lo,y_hi")
    vals = [float(v) for v in text.split(",")]
    if len(vals) % 2 != 0 or len(vals) < 4:
        raise ValueError(f"window must be x_lo,x_hi,y_lo,y_hi[,...], got {text!r}")
    lo = np.array(vals[0::2])
    hi = np.array(vals[1::2])
    return Window(lo, hi)


def parse_window(text: str) -> Window | None:
    """A box, or None for ``auto`` (``analyze``'s doubled data box)."""
    return None if text == "auto" else parse_box(text)


def parse_levels(text: str) -> tuple[float, ...]:
    levels = tuple(float(v) for v in text.split(","))
    if not np.all(np.isfinite(levels)):
        raise ValueError(f"levels must be finite, got {text!r}")
    return levels


def _flag_type(parse):
    """``parse`` as an argparse type: argparse prints the ValueError it raises
    after the flag's name, and exits with code 2."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _finish(report: dict, path: str | None) -> int:
    """Write the report to ``path`` if given, print its verdict lines, and
    return the exit code its verdicts call for."""
    if path:
        write_report(report, path)
        print(f"report -> {path}")
    for line in verdict_lines(report):
        print(line)
    return 0 if report_passed(report) else 1


# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    data = gen_ring_dataset(args.seed, args.inner, args.ring, args.inner_sigma,
                            args.ring_radius, args.ring_sigma)
    save_dataset(data, args.out)
    # the generator's settings, for the reader only: no command opens this file
    meta = {"generator": "ring", "seed": args.seed, "n_inner": args.inner, "n_ring": args.ring,
            "inner_sigma": args.inner_sigma, "ring_radius": args.ring_radius,
            "ring_sigma": args.ring_sigma}
    Path(f"{args.out}.meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(data)} points to {args.out} (+ sidecar {args.out}.meta.json)")
    return 0


def cmd_train(args) -> int:
    data = load_dataset(args.data)
    cfg = TrainConfig(optimizer=Optimizer(args.optimizer), learning_rate=args.lr,
                      steps=args.steps, batch_size=args.batch_size, seed=args.seed,
                      loss=Loss(args.loss), target_loss=args.target_loss)
    net = init_weights(list(args.arch), args.activation, args.seed)
    trained, history = train(net, data, cfg)
    save_network(trained, args.out)
    if args.history:
        with open(args.history, "w") as fh:
            fh.write("step,loss\n")
            for step, loss in enumerate(history.tolist(), 1):
                fh.write(f"{step},{loss!r}\n")
    acc = accuracy(trained, data)
    print(f"trained {','.join(map(str, args.arch))} for {len(history)} steps: "
          f"loss={history[-1]:.4f} accuracy={acc:.4f} -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    if args.resolution < 2:
        raise ValueError(f"resolution (--resolution) must be >= 2, got {args.resolution}")
    net = load_network(args.model)
    if net.output_dim != 1:
        raise ValueError(f"analysis needs a scalar-valued model, got output dim "
                         f"{net.output_dim} from --model {args.model}")
    if net.input_dim != 2:
        raise ValueError(f"analysis needs a 2-input model, got input dim {net.input_dim} "
                         f"from --model {args.model}")
    data = load_dataset(args.data) if args.data else None
    if data is not None and data.dim != 2:
        raise ValueError(f"data (--data) must be 2-d, got {data.dim}-d points from {args.data}")
    window = args.window
    if window is None:
        if data is None:
            raise ValueError("--window auto requires --data")
        window = auto_window(data)
    if window.dim != 2:
        raise ValueError(f"window (--window) must be 2-d, got a {window.dim}-d window")

    config = {"model": args.model, "window": _plain(window),
              "resolution": args.resolution, "levels": list(args.levels),
              "deterministic": args.deterministic}
    outcome, base_field = analyze_outcome(net, config)
    lo_v, hi_v = base_field.value_range()
    for level in args.levels:
        if not lo_v <= level <= hi_v:
            print(f"warning: level {level:g} outside achieved value range "
                  f"[{lo_v:.4g}, {hi_v:.4g}]; expect an empty component list",
                  file=sys.stderr)
    if data is not None:
        print(f"accuracy {accuracy(net, data):.4f} on {args.data}")
    report = make_report(KIND_ANALYZE, config, [outcome.to_dict()], args.deterministic, 0.0)
    code = _finish(report, args.report)  # written first, so a bad --svg path costs no report
    if args.svg:
        svg = outcome_svg(report["outcomes"][0], args.deterministic,
                          title=f"analysis of {Path(args.model).name}",
                          points=data.points if data is not None else None,
                          labels=data.labels if data is not None else None)
        Path(args.svg).write_text(svg)
        print(f"svg -> {args.svg}")
    return code


def cmd_reproduce(args) -> int:
    fig = args.paper_fig
    if args.seeds < 0:
        raise ValueError(f"--seeds must be >= 0, got {args.seeds}")
    spec = reproduction_spec(fig, tuple(range(args.seeds)))
    # made before the run and filled after the report is written, so a bad
    # directory costs no finished run
    svg_dir = Path(args.svg_dir) if args.svg_dir else None
    if svg_dir:
        svg_dir.mkdir(parents=True, exist_ok=True)
        print(f"svg per seed -> {svg_dir}")

    t0 = time.perf_counter()
    sweep = run_experiment(spec)
    wall = time.perf_counter() - t0
    outcomes = [o.to_dict() for o in sweep.outcomes]
    report = make_report(FIG_KINDS[fig], {"paper_fig": fig, "spec": spec.to_dict(),
                                          "deterministic": args.deterministic},
                         outcomes, args.deterministic, wall)
    code = _finish(report, args.report)
    if svg_dir:
        for o in outcomes:
            if o["error"] is None and o["levels"]:
                (svg_dir / f"seed{o['seed']:03d}.svg").write_text(
                    outcome_svg(o, args.deterministic))
    return code


def cmd_sweep_nonsingular(args) -> int:
    """Run the sweep with the spec fields the user gave as flags; every other
    field keeps its ``NonSingularSweepSpec`` default."""
    given = {field.name: getattr(args, field.name)
             for field in dataclasses.fields(NonSingularSweepSpec)
             if getattr(args, field.name, None) is not None}
    spec = NonSingularSweepSpec(**given)

    t0 = time.perf_counter()
    entries = random_nonsingular_sweep(spec)
    wall = time.perf_counter() - t0
    report = make_report(KIND_SWEEP, {"spec": spec.to_dict(),
                                      "deterministic": args.deterministic},
                         list(entries), args.deterministic, wall)
    return _finish(report, args.report)


def _rebuilt_seed(spec: ExperimentSpec, o: dict) -> dict:
    """A reproduce outcome from its raw members."""
    if o["error"] is not None:
        return SeedOutcome(o["seed"], o["error"], o["final_loss"], o["steps_run"]).to_dict()
    return trained_outcome(spec, o["seed"], spec.dataset(o["seed"]),
                           network_from_dict(o["network"]), o["steps_run"]).to_dict()


def rebuild_report(report: dict) -> dict:
    """The report that the writer's functions write from the raw members of
    ``report``, running all but training again: a reproduction's paper figure
    and per seed its ``seed``, ``error``, ``final_loss``, ``steps_run`` and
    ``network``; a sweep's spec, for as many nets as the report holds; the
    analyze config and network; ``config.deterministic``, ``versions`` and a
    non-zeroed ``wall_seconds``."""
    kind, outcomes = report["kind"], report["outcomes"]
    config, wall = report["config"], report["timings"]["wall_seconds"]
    det = config["deterministic"]
    if kind in (KIND_REPRODUCE_NARROW, KIND_REPRODUCE_WIDE):
        fig = config["paper_fig"]
        spec = reproduction_spec(fig, tuple(o["seed"] for o in outcomes))
        kind, config = FIG_KINDS[fig], {"paper_fig": fig, "spec": spec.to_dict(),
                                        "deterministic": det}
        rebuilt = [_rebuilt_seed(spec, o) for o in outcomes]
    elif kind == KIND_SWEEP:
        spec = NonSingularSweepSpec.from_dict(config["spec"], count=len(outcomes))
        config = {"spec": spec.to_dict(), "deterministic": det}
        rebuilt = list(random_nonsingular_sweep(spec))
    elif kind == KIND_ANALYZE:
        wall = 0.0
        rebuilt = [analyze_outcome(network_from_dict(outcomes[0]["network"]), config)[0].to_dict()]
    else:
        raise ValueError(f"unknown report kind {kind!r}")
    return {**make_report(kind, config, rebuilt, det, wall), "versions": report["versions"]}


def _differences(stored, rebuilt, path: str = "") -> list[str]:
    """One ``<path> is X, recomputed Y`` line per differing leaf, over the union
    of every object's members and every list's items; values compare as JSON."""
    if ABSENT not in (stored, rebuilt) and _json(stored) == _json(rebuilt):
        return []
    if type(stored) is type(rebuilt) and isinstance(stored, (dict, list)):
        items = isinstance(stored, list)
        if items:
            stored, rebuilt = dict(enumerate(stored)), dict(enumerate(rebuilt))
        return [line for key in sorted(stored.keys() | rebuilt.keys()) for line in _differences(
            stored.get(key, ABSENT), rebuilt.get(key, ABSENT),
            f"{path}[{key}]" if items else f"{path}.{key}" if path else key)]
    stored, rebuilt = ("absent" if v is ABSENT else repr(v) for v in (stored, rebuilt))
    return [f"{path} is {stored}, recomputed {rebuilt}"]


def validate_report(report) -> list[str]:
    """Where ``report`` differs from ``rebuild_report(report)``, one line per
    member, walked only when the two texts differ; a report that lacks a raw
    member or mistypes one raises ValueError."""
    if not isinstance(report, dict):
        raise ValueError(f"a report is a JSON object, got {type(report).__name__}")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {report.get('schema_version')!r}")
    try:
        rebuilt = dumps_report(rebuild_report(report))
        if rebuilt == dumps_report(report):
            return []
        return _differences(report, json.loads(rebuilt))
    except KeyError as exc:
        raise ValueError(f"report is missing key {exc}") from None
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed report: {exc}") from None


def cmd_validate_report(args) -> int:
    mismatches = validate_report(load_report(args.report))
    for line in mismatches or [f"verdicts check out: {args.report}"]:
        print(line, file=sys.stderr if mismatches else sys.stdout)
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leveltopo",
        description="Train small networks and classify the topology of their level sets.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the two-class ring dataset")
    p.add_argument("--seed", type=_flag_type(parse_seed), default=0)
    p.add_argument("--inner", type=int, default=ExperimentSpec.n_inner,
                   help="points in the origin blob")
    p.add_argument("--ring", type=int, default=ExperimentSpec.n_ring,
                   help="points in the ring")
    p.add_argument("--inner-sigma", type=float, default=ExperimentSpec.inner_sigma)
    p.add_argument("--ring-radius", type=float, default=ExperimentSpec.ring_radius)
    p.add_argument("--ring-sigma", type=float, default=ExperimentSpec.ring_sigma)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a classifier on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", required=True, type=_flag_type(parse_ints),
                   help="comma widths, e.g. 2,3,1")
    p.add_argument("--activation", type=_flag_type(parse_activation), default="sigmoid")
    p.add_argument("--optimizer", choices=[o.value for o in Optimizer], default="adam")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--loss", choices=[l.value for l in Loss], default="bce")
    p.add_argument("--target-loss", type=float, default=TrainConfig.target_loss)
    p.add_argument("--seed", type=_flag_type(parse_seed), default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--history", default=None, help="optional loss history CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("analyze", help="extract and classify level components of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--window", type=_flag_type(parse_window), default="auto",
                   help="x_lo,x_hi,y_lo,y_hi or auto")
    p.add_argument("--resolution", type=int, default=ExperimentSpec.resolution)
    p.add_argument("--levels", type=_flag_type(parse_levels), default=(DECISION_CUT,),
                   help="comma floats (default: the decision cut)")
    p.add_argument("--report", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reproduce", help="run a reference experiment end to end")
    p.add_argument("--paper-fig", choices=["3a", "3b"], required=True,
                   help="3a: six width-2 hidden layers; 3b: one width-3 hidden layer")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--report", default=None)
    p.add_argument("--svg-dir", default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep-nonsingular",
                       help="probe level sets of random non-singular networks")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--depths", type=_flag_type(parse_ints), default=None)
    p.add_argument("--levels-per-net", type=int, default=None)
    p.add_argument("--window", type=_flag_type(parse_box), default=None,
                   help="x_lo,x_hi,y_lo,y_hi")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--seed", type=_flag_type(parse_seed), default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--activation", type=_flag_type(parse_activation), default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_sweep_nonsingular)

    p = sub.add_parser("validate-report",
                       help="rebuild a report from its raw data and list each member that differs")
    p.add_argument("report")
    p.set_defaults(func=cmd_validate_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
