#!/usr/bin/env python3
"""Regenerate the reference figures: every workload, untraced and traced.

    python3 perfbench/reference.py [--seed 1] [--seconds 30]

Runs ``run.py`` once per workload with ``--trace 0`` and once with
``--trace 1``, writes the result lines to ``perfbench/reference.json`` and
prints the tables that the README's reference section holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    results = {}
    for workload in plan.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            results[f"{workload} trace={trace}"] = json.loads(proc.stdout.splitlines()[-1])
    (HERE / "reference.json").write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "results": results}, indent=1) + "\n")

    def table(trace: int) -> None:
        runs = [results[f"{w} trace={trace}"] for w in plan.WORKLOADS]
        print("| metric | unit | " + " | ".join(plan.WORKLOADS) + " |")
        print("| --- | --- |" + " ---: |" * len(plan.WORKLOADS))
        for name, metric in runs[0]["metrics"].items():
            cells = " | ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs)
            print(f"| `{name}` | {metric['unit']} | {cells} |")
        cells = " | ".join(f"{r['attempted']}/{r['failed']}/{r['correct']}" for r in runs)
        print(f"| attempted/failed/correct | | {cells} |\n")

    table(0)
    table(1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
