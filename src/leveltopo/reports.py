"""Run reports: a versioned JSON envelope whose verdicts are recomputable.

Every member of a report other than its raw data is derived from that data,
so ``validate-report`` rebuilds the report and flags each member that does
not follow from its own evidence.  With the deterministic flag, wall-clock
timings are zeroed so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass

import numpy as np

from .contours import Classification, boundary_tol, classify_component, component_encloses
from .network import Window, _plain, errors_named

SCHEMA_VERSION = 1

KIND_REPRODUCE_NARROW = "reproduce-3a"
KIND_REPRODUCE_WIDE = "reproduce-3b"
KIND_SWEEP = "sweep-nonsingular"
KIND_ANALYZE = "analyze"
FIG_KINDS = {"3a": KIND_REPRODUCE_NARROW, "3b": KIND_REPRODUCE_WIDE}  # by ``--paper-fig``

# reproduction pass rules, as fractions of the seed count
MIN_CONVERGED_FRACTION = 0.5      # narrow sweep: seeds that must reach the loss bar
MIN_ACCURACY = 0.95               # wide sweep: per-seed accuracy bar
MIN_ACCURATE_FRACTION = 0.9      # wide sweep: seeds that must clear the accuracy bar
MIN_LOOP_FRACTION = 0.9           # of accurate seeds: must show an origin-enclosing loop


def versions() -> dict:
    import leveltopo

    return {
        "leveltopo": leveltopo.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _json(value) -> str:
    # a report is a tree, so the per-list cycle check only costs time
    return json.dumps(value, sort_keys=True, separators=(",", ":"), check_circular=False)


def _scalars(d: dict) -> dict:
    return {k: v for k, v in d.items() if not isinstance(v, (dict, list))}


@dataclass(frozen=True)
class EncodedOutcome:
    """An outcome dict as the text ``dumps_report`` writes for it, with its
    scalar values and those of its levels: all that the verdict rules read,
    which they read by subscripting this object."""

    summary: dict
    text: str

    def __getitem__(self, key):
        return self.summary[key]


def encode_outcome(outcome: dict) -> EncodedOutcome:
    """Encode ``outcome`` where it was computed: a worker process that sends
    its parent this object spares the parent encoding every outcome on one
    core."""
    summary = {**_scalars(outcome), "levels": [_scalars(lv) for lv in outcome["levels"]]}
    return EncodedOutcome(summary, _json(outcome))


def _report_pieces(report: dict):
    """The texts whose concatenation is ``dumps_report(report)``, in order.

    Each outcome is encoded on its own and yielded between the ``outcomes``
    array's brackets; an ``EncodedOutcome`` brings the text its worker
    encoded.  No piece holds more than one outcome, so a writer that
    streams them never holds the report's whole text."""
    yield "{"
    for n, (key, value) in enumerate(sorted(report.items())):
        yield f"{',' if n else ''}{_json(key)}:"
        if key != "outcomes":
            yield _json(value)
            continue
        yield "["
        for m, o in enumerate(value):
            if m:
                yield ","
            yield o.text if isinstance(o, EncodedOutcome) else _json(o)
        yield "]"
    yield "}\n"


def dumps_report(report: dict) -> str:
    """One line of compact, sorted-key JSON: a sweep report's polylines hold
    hundreds of thousands of coordinates, and indenting puts each on a line
    of its own.  The bytes are those of encoding the plain-dict report in
    one call."""
    return "".join(_report_pieces(report))


def write_report(report: dict, path) -> None:
    """Write ``dumps_report(report)`` to ``path`` piece by piece."""
    with open(path, "w") as fh:
        fh.writelines(_report_pieces(report))


def load_report(path) -> dict:
    with errors_named(path), open(path) as fh:
        return json.load(fh)


def make_report(kind: str, config: dict, outcomes: list, deterministic: bool,
                wall_seconds: float) -> dict:
    """The report of a run whose outcomes are dicts or ``EncodedOutcome``s."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        "versions": versions(),
        "seeds": [o["seed"] for o in outcomes],
        "outcomes": outcomes,
        "timings": {"wall_seconds": 0.0 if deterministic else wall_seconds,
                    "deterministic": deterministic},
    }
    report["verdicts"] = compute_verdicts(report)
    return report


def _check(ok: bool, name: str, detail: str) -> str:
    return f"{'PASS' if ok else 'FAIL'} {name}: {detail}"


def _verdict_narrow(outcomes: list[dict]) -> tuple[dict, list[str]]:
    """Narrow regime: among seeds that converged, every decision-boundary
    component must be boundary-touching, and each seed must have one: a seed
    whose boundary never enters the window is no evidence."""
    converged = [o for o in outcomes if o["error"] is None and o["converged"]]
    required = math.ceil(MIN_CONVERGED_FRACTION * len(outcomes))
    bounded = sum(o["bounded_final"] for o in converged)
    empty = sum(o["bounded_final"] + o["boundary_final"] == 0 for o in converged)
    enough, clean, seen = len(converged) >= required, bounded == 0, empty == 0
    verdict = {"status": "PASS" if enough and clean and seen else "FAIL",
               "converged": len(converged), "required_converged": required,
               "bounded_components_among_converged": bounded,
               "converged_without_component": empty}
    return verdict, [
        _check(enough, "converged-seeds",
               f"{len(converged)}/{len(outcomes)} (required {required})"),
        _check(clean, "bounded-components-among-converged", f"{bounded} (required 0)"),
        _check(seen, "converged-without-component", f"{empty} (required 0)")]


def _verdict_wide(outcomes: list[dict]) -> tuple[dict, list[str]]:
    """Wide regime: most seeds reach high accuracy, and most of those show a
    bounded decision-boundary component that encloses the origin."""
    accurate = [o for o in outcomes
                if o["error"] is None and o["accuracy"] is not None
                and o["accuracy"] >= MIN_ACCURACY]
    required_accurate = math.ceil(MIN_ACCURATE_FRACTION * len(outcomes))
    with_loop = [o for o in accurate
                 if any(lv["bounded_enclosing_origin"] >= 1 for lv in o["levels"])]
    required_loops = math.ceil(MIN_LOOP_FRACTION * len(accurate))
    enough, loops = len(accurate) >= required_accurate, len(with_loop) >= required_loops
    verdict = {"status": "PASS" if enough and loops else "FAIL", "accurate": len(accurate),
               "required_accurate": required_accurate, "with_origin_loop": len(with_loop),
               "required_with_loop": required_loops}
    return verdict, [
        _check(enough, "accurate-seeds",
               f"{len(accurate)}/{len(outcomes)} (required {required_accurate})"),
        _check(loops, "origin-loop-seeds",
               f"{len(with_loop)}/{len(accurate)} (required {required_loops})")]


def _verdict_sweep(outcomes: list[dict]) -> tuple[dict, list[str]]:
    """Non-singular sweep: no level may have a bounded component."""
    bounded = sum(o["bounded_final"] for o in outcomes)
    violations = [{"seed": o["seed"], "level": lv["level"], "bounded": lv["bounded_final"]}
                  for o in outcomes for lv in o["levels"] if lv["bounded_final"] > 0]
    clean = bounded == 0
    verdict = {"status": "PASS" if clean else "FAIL", "bounded_components": bounded,
               "violations": violations}
    return verdict, [_check(clean, "bounded-components",
                            f"{bounded} (required 0; violations: {len(violations)})")]


def _verdict_analyze(outcomes: list[dict]) -> tuple[dict, list[str]]:
    bounded = sum(o["bounded_final"] for o in outcomes)
    boundary = sum(o["boundary_final"] for o in outcomes)
    verdict = {"status": "DONE", "bounded_components": bounded,
               "boundary_touching_components": boundary}
    return verdict, [f"DONE {KIND_ANALYZE}: bounded={bounded} touching={boundary}"]


# kind -> (its rule, the detail of its UNTESTED verdict on a run with no outcomes)
_VERDICTS = {
    KIND_REPRODUCE_NARROW: (_verdict_narrow, "no seeds"),
    KIND_REPRODUCE_WIDE: (_verdict_wide, "no seeds"),
    KIND_SWEEP: (_verdict_sweep, "no networks"),
    KIND_ANALYZE: (_verdict_analyze, None),
}


def _judge(report: dict) -> tuple[dict, list[str]]:
    """The verdict of the report's kind on its outcomes, and one printed
    PASS/FAIL line per sub-criterion, both from the same booleans."""
    kind = report["kind"]
    if kind not in _VERDICTS:
        raise ValueError(f"unknown report kind {kind!r}")
    rule, empty_run = _VERDICTS[kind]
    if not report["outcomes"] and empty_run is not None:
        return {"status": "UNTESTED", "detail": empty_run}, [f"UNTESTED {kind}: {empty_run}"]
    return rule(report["outcomes"])


def compute_verdicts(report: dict) -> dict:
    return {report["kind"]: _judge(report)[0]}


def level_entry(level: float, window: Window, resolution: tuple[int, ...] | list[int],
                chains: list) -> dict:
    """A level's report entry, from the vertex chains of its components:
    arrays, or the lists a report stores.  Beside the level, window,
    resolution and chains, each member is derived here, the one derivation
    of each: ``boundary_tol``, each component's classification from its
    chain, and the counts; ``bounded_enclosing_origin`` counts the bounded
    chains around the origin (even-odd test)."""
    tol = boundary_tol(window, resolution)
    classes = [classify_component(chain, window, tol).value for chain in chains]
    loops = [np.asarray(chain, dtype=np.float64) for chain, cls in zip(chains, classes)
             if cls == Classification.BOUNDED.value]
    bounded = len(loops)
    enclosing = sum(component_encloses(loop, (0.0, 0.0)) for loop in loops)
    return {
        "level": level,
        "final_classifications": classes,
        "bounded_final": bounded,
        "boundary_final": len(classes) - bounded,
        "bounded_enclosing_origin": enclosing,
        "report": {
            "level": level,
            "window": _plain(window),
            "resolution": list(resolution),
            "boundary_tol": tol,
            "components": [{"classification": cls, "polylines": [_plain(chain)]}
                           for cls, chain in zip(classes, chains)],
        },
    }


def report_passed(report: dict) -> bool:
    return all(v.get("status") in ("PASS", "DONE", "UNTESTED")
               for v in report["verdicts"].values())


def verdict_lines(report: dict) -> list[str]:
    """One human-readable PASS/FAIL line per sub-criterion of the report's
    verdict.  The lines follow from the outcomes, not from the stored
    verdicts; the CLI prints them for the report ``make_report`` has just
    built, so they state its stored verdict."""
    return _judge(report)[1]
