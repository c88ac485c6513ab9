"""One workload run in a fresh interpreter, through leveltopo's public API.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR [--setup-only] [--trace]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``LEVELSET_PROBE_THREADS`` set.  The child imports leveltopo,
builds the workload's inputs, writes the monotonic clock reading to
``OUT_DIR/ready`` (the end of set-up) and then runs the workload, leaving
its outputs in ``OUT_DIR``: ``report.json`` for the three sweeps,
``audit.json`` for oracle-audit, and ``spans.json`` when traced.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import plan

ROOT = Path(__file__).resolve().parent.parent


def import_leveltopo():
    import leveltopo
    import leveltopo.cli

    src = (ROOT / "src").resolve()
    if src not in Path(leveltopo.__file__).resolve().parents:
        sys.exit(f"leveltopo imported from {leveltopo.__file__}, not from {src}")
    return leveltopo


def setup(lt, workload: str, seed: int):
    """Build the workload's inputs; returns the argument for ``execute``."""
    if workload == "narrow-3a":
        return lt.analysis.reproduction_spec("3a", tuple(plan.narrow_seeds(seed)))
    if workload == "wide-3b":
        return lt.analysis.reproduction_spec("3b", tuple(plan.wide_seeds(seed)))
    if workload == "nonsingular-sweep":
        return ["sweep-nonsingular", "--count", str(plan.SWEEP_COUNT),
                "--seed", str(plan.sweep_seed(seed))]
    if workload == "oracle-audit":
        nets = []
        for desc in plan.audit_nets(seed):
            kind, sharpness = desc["activation"]
            activation = lt.Activation(lt.ActivationKind(kind), sharpness)
            nets.append((desc, lt.init_weights(desc["arch"], activation,
                                               desc["init_seed"])))
        return nets
    raise ValueError(f"unknown workload {workload!r}")


def run_reproduction(lt, spec, fig: str, out: Path) -> None:
    """What ``leveltopo reproduce`` does, on the benchmark's seed subset."""
    kind = (lt.reports.KIND_REPRODUCE_NARROW if fig == "3a"
            else lt.reports.KIND_REPRODUCE_WIDE)
    t0 = time.perf_counter()
    sweep = lt.analysis.run_experiment(spec)
    wall = time.perf_counter() - t0
    report = lt.reports.make_report(
        kind, {"paper_fig": fig, "spec": spec.to_dict(), "deterministic": False},
        [o.to_dict() for o in sweep.outcomes], False, wall)
    lt.reports.write_report(report, out / "report.json")


def audit_construct(lt, desc: dict, net) -> dict:
    """Criterion-7 computations on one narrow net, with two negative controls."""
    lo, hi = plan.AUDIT_CONSTRUCT_WINDOW
    window = lt.Window(np.array([lo, lo]), np.array([hi, hi]))
    padded = lt.pad_to_width(net, 2)
    points = np.random.default_rng(desc["points_seed"]).uniform(
        lo, hi, size=(plan.AUDIT_PAD_POINTS, 2))
    program_pad_exact = bool(np.array_equal(lt.forward_batch(net, points),
                                            lt.forward_batch(padded, points)))
    fixed = lt.make_nonsingular(padded, plan.AUDIT_DELTA, desc["perturb_seed"])
    report = lt.is_nonsingular(fixed)
    idempotent = lt.make_nonsingular(fixed, plan.AUDIT_DELTA, desc["again_seed"]) is fixed
    trunk, _head = lt.decompose(fixed)
    injective = lt.check_injective_on_grid(trunk, window, plan.AUDIT_RESOLUTION)
    first = trunk.layers[0]
    collapsed = lt.Network(trunk.input_dim,
                           (lt.Layer(np.zeros_like(first.weights), first.bias),)
                           + trunk.layers[1:], trunk.activation, trunk.final_activation)
    collapsed_injective = lt.check_injective_on_grid(collapsed, window,
                                                     plan.AUDIT_RESOLUTION)
    unperturbed = lt.is_nonsingular(padded)
    return {
        "net": lt.network.network_to_dict(net),
        "padded": lt.network.network_to_dict(padded),
        "fixed": lt.network.network_to_dict(fixed),
        "program_pad_exact": program_pad_exact,
        "verdict": report.verdict,
        "determinants": list(report.determinants),
        "idempotent": idempotent,
        "injective": injective,
        "collapsed_injective": collapsed_injective,
        "unperturbed_verdict": unperturbed.verdict,
    }


def audit_oracle(lt, desc: dict, net) -> dict:
    """Criterion-6 computations: band oracle against contours on 5 levels."""
    lo, hi = plan.AUDIT_ORACLE_WINDOW
    window = lt.Window(np.array([lo, lo]), np.array([hi, hi]))
    res = plan.AUDIT_RESOLUTION
    field = lt.sample_grid(lt.network_scalar_fn(net), window, (res, res))
    delta = plan.AUDIT_DELTA * float(np.ptp(field.values))
    rng = np.random.default_rng(desc["levels_seed"])
    levels = lt.fields.sample_noncritical_levels(field, plan.AUDIT_LEVELS_PER_NET, rng)
    compares = [lt.contours.band_oracle_compare(field, float(level), delta)
                for level in levels]
    return {"levels": [float(v) for v in levels], "compares": compares}


def run_audit(lt, nets, out: Path, tracer) -> None:
    results = []
    for desc, net in nets:
        fn = audit_construct if desc["kind"] == "construct" else audit_oracle
        try:
            result = (fn(lt, desc, net) if tracer is None
                      else tracer.item(fn, lt, desc, net))
        except (ValueError, RuntimeError) as exc:
            result = {"error": f"{type(exc).__name__}: {exc}"}
        results.append({"kind": desc["kind"], **result})
    (out / "audit.json").write_text(json.dumps({"nets": results}))


def execute(lt, workload: str, inputs, out: Path, tracer) -> int:
    if workload == "narrow-3a":
        run_reproduction(lt, inputs, "3a", out)
    elif workload == "wide-3b":
        run_reproduction(lt, inputs, "3b", out)
    elif workload == "nonsingular-sweep":
        return lt.cli.main(inputs + ["--report", str(out / "report.json")])
    else:
        run_audit(lt, inputs, out, tracer)
    return 0


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    lt = import_leveltopo()
    inputs = setup(lt, workload, seed)
    (out / "ready").write_text(repr(time.monotonic()))
    if "--setup-only" in argv:
        return 0
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = execute(lt, workload, inputs, out, tracer)
    if tracer is not None:
        tracer.write(out / "spans.json")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
