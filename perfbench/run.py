#!/usr/bin/env python3
"""leveltopo benchmark: one workload, timed from outside, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` starts the workload again
and again, each time in a fresh interpreter with LEVELSET_PROBE_THREADS set
to the number of usable cores, for about S seconds, and reports the
medians of the end-to-end metrics (wall_s, cpu_s, setup_s, peak_rss_mb).
Set-up time is also taken from set-up-only interpreters started before the
timed rounds.  ``--trace 1`` runs rounds of two single-process runs side by
side, one untraced and one with spans around leveltopo's public functions,
and reports the per-layer metrics and the tracing overhead.  Rounds are
whole and repeat while the next is expected to end within S seconds.
Every run's outputs are checked by ``checks.py``.  The last line of standard output is the result
as JSON; a record of every sample goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import plan
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> (unit, source): "count" reads the counter of that name,
# "calls"/"self_s"/"total_s" read that field of the span named by the rest of
# the metric name, None is computed in layer_metrics or per_layer
PER_LAYER = {
    "training.steps": ("count", "count"),
    "training.step_us": ("us", None),
    "training.train.self_s": ("s", "self_s"),
    "training.accuracy.self_s": ("s", "self_s"),
    "network.forward_batch.calls": ("count", "calls"),
    "network.forward_batch.points": ("count", "count"),
    "network.forward_batch.self_s": ("s", "self_s"),
    "fields.sample_grid.calls": ("count", "calls"),
    "fields.sample_grid.points": ("count", "count"),
    "fields.sample_grid.self_s": ("s", "self_s"),
    "fields.region_components.calls": ("count", "calls"),
    "fields.region_components.cells": ("count", "count"),
    "fields.region_components.self_s": ("s", "self_s"),
    "contours.marching_squares.self_s": ("s", "self_s"),
    "contours.segments": ("count", "count"),
    "contours.link_components.self_s": ("s", "self_s"),
    "contours.components": ("count", "count"),
    "contours.component_encloses.self_s": ("s", "self_s"),
    "contours.band_oracle_compare.self_s": ("s", "self_s"),
    "analysis.window_escalation.calls": ("count", "calls"),
    "analysis.window_escalation.self_s": ("s", "self_s"),
    "analysis.window_escalation.total_s": ("s", "total_s"),
    "analysis.doublings": ("count", "count"),
    "analysis.outcome_bytes": ("bytes", "count"),
    "analysis.item_s.p50": ("s", None),
    "analysis.item_s.p90": ("s", None),
    "nonsingular.make_nonsingular.self_s": ("s", "self_s"),
    "nonsingular.is_nonsingular.self_s": ("s", "self_s"),
    "nonsingular.scaled_det.calls": ("count", "calls"),
    "nonsingular.check_injective_on_grid.calls": ("count", "calls"),
    "nonsingular.check_injective_on_grid.self_s": ("s", "self_s"),
    "reports.make_report.self_s": ("s", "self_s"),
    "reports.dumps_report.self_s": ("s", "self_s"),
    "reports.bytes": ("bytes", "count"),
    "trace.spans": ("count", None),
    "trace.single_wall_s": ("s", None),
    "trace.traced_wall_s": ("s", None),
    "trace.overhead_pct": ("%", None),
}
# a tail percentile needs at least ten samples beyond it
P90_MIN_ITEMS = 40


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def spawn(workload: str, seed: int, out: Path, threads: int, *flags: str) -> dict:
    """Start child.py in a fresh interpreter, in a process group of its own."""
    out.mkdir(parents=True)
    env = dict(os.environ, LEVELSET_PROBE_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(out), *flags]
    mode = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out / "stdout.txt"), mode, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(out / "stderr.txt"), mode, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions, setsid=True)
    return {"pid": pid, "start": start, "out": out}


def reap(children: list[dict]) -> list[dict]:
    """Wait for every child and time each from outside.

    wall_s runs from the spawn to the reaping of the child; cpu_s and
    peak_rss_mb come from wait4's rusage, which covers the child and the
    worker processes it waited for (peak is the largest single process).
    Children still running after CHILD_TIMEOUT_S are killed with their
    process groups.
    """
    by_pid = {c["pid"]: c for c in children}

    def kill_all(_signum, _frame):
        for pid in by_pid:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    previous = signal.signal(signal.SIGALRM, kill_all)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        for _ in children:
            pid, status, usage = os.wait4(-1, 0)
            child = by_pid[pid]
            ready = child["out"] / "ready"
            child.update(
                wall_s=time.monotonic() - child["start"],
                code=os.waitstatus_to_exitcode(status),
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                setup_s=(float(ready.read_text()) - child["start"]
                         if ready.exists() else None))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    kill_all(None, None)  # nothing should be left of any group; make sure
    return [{k: v for k, v in c.items() if k not in ("pid", "start", "out")}
            for c in children]


def checked(workload: str, seed: int, out: Path, sample: dict) -> dict:
    """Add the checks on what a full run wrote to its timing sample; the
    outputs are removed once they pass."""
    attempted = plan.operations(workload)
    problems: list[str] = []
    try:
        attempted, failed, problems = checks.CHECKS[workload](out, seed)
    except FileNotFoundError:
        failed = attempted  # the run crashed before writing its outputs
    if sample["code"] != 0:
        tail = (out / "stderr.txt").read_text()[-2000:]
        problems = problems + [f"exit code {sample['code']}: {tail}"]
        if failed == attempted:
            problems = []  # every operation failed: nothing left to be wrong
    if not problems:
        shutil.rmtree(out)
    return {**sample, "attempted": attempted, "failed": failed, "problems": problems}


def repeat_for(seconds: float, one_round) -> list:
    """Whole rounds, at least one, while the next is expected to end in time.

    A round is expected to take as long as the previous one, so a run stays
    within ``seconds`` unless a single round is longer.
    """
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(one_round(len(results)))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return results


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(args, run_dir: Path, record: dict) -> dict:
    threads = usable_cores()
    setups = []
    for k in range(SETUP_PROBES):
        out = run_dir / f"setup{k}"
        probe, = reap([spawn(args.workload, args.seed, out, threads, "--setup-only")])
        if probe["code"] != 0 or probe["setup_s"] is None:
            raise RuntimeError(f"set-up failed: {(out / 'stderr.txt').read_text()}")
        setups.append(probe["setup_s"])

    def one_round(k: int) -> dict:
        out = run_dir / f"round{k}"
        sample, = reap([spawn(args.workload, args.seed, out, threads)])
        return checked(args.workload, args.seed, out, sample)

    rounds = repeat_for(args.seconds, one_round)
    setups += [r["setup_s"] for r in rounds if r["setup_s"] is not None]
    record.update(threads=threads, setup_samples=setups, rounds=rounds)
    return {
        "wall_s": median(r["wall_s"] for r in rounds),
        "cpu_s": median(r["cpu_s"] for r in rounds),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }


def layer_metrics(spans_path: Path) -> dict:
    # a traced run that died wrote no spans; its operations count as failed
    data = (json.loads(spans_path.read_text()) if spans_path.exists()
            else {"spans": [], "counts": {}})
    summary = tracer.summarize(data["spans"])
    counts = data["counts"]
    values = {}
    for name, (_unit, source) in PER_LAYER.items():
        if source == "count":
            values[name] = float(counts.get(name, 0.0))
        elif source is not None:
            span, _, field = name.rpartition(".")
            values[name] = float(summary.get(span, {}).get(field, 0.0))
    steps = values["training.steps"]
    values["training.step_us"] = (1e6 * values["training.train.self_s"] / steps
                                  if steps else 0.0)
    items = sorted(summary.get(tracer.ITEM, {}).get("durations", []))
    values["analysis.item_s.p50"] = median(items) if items else 0.0
    values["analysis.item_s.p90"] = (float(np.percentile(items, 90))
                                     if len(items) >= P90_MIN_ITEMS else 0.0)
    values["trace.spans"] = float(len(data["spans"]))
    return values


def per_layer(args, run_dir: Path, record: dict) -> dict:
    rounds = []

    def one_round(k: int) -> dict:
        # the two single-process runs share the machine, one core each
        dirs = [run_dir / f"single{k}", run_dir / f"traced{k}"]
        samples = reap([spawn(args.workload, args.seed, dirs[0], 1),
                        spawn(args.workload, args.seed, dirs[1], 1, "--trace")])
        values = layer_metrics(dirs[1] / "spans.json")
        plain, traced = (checked(args.workload, args.seed, d, s)
                         for d, s in zip(dirs, samples))
        rounds.extend([plain, traced])
        values["trace.single_wall_s"] = plain["wall_s"]
        values["trace.traced_wall_s"] = traced["wall_s"]
        values["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
        return values

    layers = repeat_for(args.seconds, one_round)
    record.update(threads=1, rounds=rounds, layers=layers)
    return {name: median(v[name] for v in layers) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leveltopo" / "__init__.py").is_file():
        print(f"error: no leveltopo sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cores": usable_cores(),
              "python": platform.python_version(), "numpy": np.__version__}
    if args.trace:
        values = per_layer(args, run_dir, record)
        units = {name: unit for name, (unit, _source) in PER_LAYER.items()}
    else:
        values = end_to_end(args, run_dir, record)
        units = dict(END_TO_END)
    rounds = record["rounds"]
    problems = [p for r in rounds for p in r["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    (OUT / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if not problems:
        shutil.rmtree(run_dir)

    print(f"{args.workload} seed={args.seed} trace={args.trace} cores={record['cores']} "
          f"LEVELSET_PROBE_THREADS={record['threads']} python={record['python']} "
          f"numpy={record['numpy']} runs={len(rounds)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  operations attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for p in problems[:20]:
        print(f"  problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
