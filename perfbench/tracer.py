"""Spans around leveltopo's public functions, recorded from outside the program.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper wherever a leveltopo module holds the function under its
own name, so each call is traced as its calling module looks it up.  Spans
(name, start, end, parent) stay in memory until ``write``.  Counters are
read at the same boundaries from arguments and return values.

``summarize`` turns a span file into per-name calls, total and self time;
self time is a span's duration minus the durations of its child spans
(calls are nested in one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import pickle
import sys
import time
from collections import defaultdict

LAYERS = ("training", "network", "fields", "contours", "analysis", "nonsingular",
          "reports")
ITEM = "item"


def _count_train(counts, args, kwargs, result):
    counts["training.steps"] += len(result[1])


def _count_forward(counts, args, kwargs, result):
    counts["network.forward_batch.points"] += len(args[1])


def _count_sample(counts, args, kwargs, result):
    counts["fields.sample_grid.points"] += result.values.size


def _count_regions(counts, args, kwargs, result):
    counts["fields.region_components.cells"] += sum(c.cell_count for c in result.components)


def _count_segments(counts, args, kwargs, result):
    counts["contours.segments"] += len(result.segments)


def _count_components(counts, args, kwargs, result):
    counts["contours.components"] += len(result)


def _count_doublings(counts, args, kwargs, result):
    counts["analysis.doublings"] += result.scales_checked


def _count_report(counts, args, kwargs, result):
    counts["reports.bytes"] += len(result.encode())


COUNTERS = {
    "training.train": _count_train,
    "network.forward_batch": _count_forward,
    "fields.sample_grid": _count_sample,
    "fields.region_components": _count_regions,
    "contours.marching_squares": _count_segments,
    "contours.link_components": _count_components,
    "analysis.window_escalation": _count_doublings,
    "reports.dumps_report": _count_report,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.outcomes: list = []  # what parallel_map returned, pickled at the end

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(sid)

    def item(self, fn, *args, **kwargs):
        """One seed, net or audit, as a span of its own."""
        return self.call(ITEM, fn, *args, **kwargs)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        maps_items = name == "analysis.parallel_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if maps_items:
                args = (functools.partial(self.item, args[0]),) + args[1:]
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            if maps_items:
                self.outcomes.append(result)
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions of the traced modules where they are used."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"leveltopo.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "leveltopo" and not mod_name.startswith("leveltopo."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(module, attr, originals[obj])

    def write(self, path) -> None:
        outcome_bytes = sum(len(pickle.dumps(o)) for result in self.outcomes
                            for o in result)
        self.counts["analysis.outcome_bytes"] += outcome_bytes
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def summarize(spans: list) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, and each duration."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for sid, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": []})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[sid]
        entry["durations"].append(end - start)
    return out
