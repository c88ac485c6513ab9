import pytest

from leveltopo.reports import (KIND_ANALYZE, KIND_REPRODUCE_NARROW, KIND_REPRODUCE_WIDE,
                               KIND_SWEEP, make_report, report_passed, verdict_lines)


def outcome(seed, *, error=None, converged=True, accuracy=1.0, bounded=0, loops=0,
            touching=1, level=0.5):
    """A hand-made outcome with one level holding ``bounded`` bounded
    components, ``loops`` of them around the origin, and ``touching``
    boundary-touching ones."""
    return {"seed": seed, "error": error, "converged": converged, "accuracy": accuracy,
            "bounded_final": bounded, "boundary_final": touching,
            "levels": [{"level": level, "bounded_final": bounded, "boundary_final": touching,
                        "bounded_enclosing_origin": loops}]}


def errored(seed):
    return {"seed": seed, "error": "loss diverged at step 3", "converged": None,
            "accuracy": None, "bounded_final": 0, "boundary_final": 0, "levels": []}


@pytest.mark.parametrize("kind,outcomes,lines,passed", [
    (KIND_REPRODUCE_NARROW, [outcome(0), outcome(1)],
     ["PASS converged-seeds: 2/2 (required 1)",
      "PASS bounded-components-among-converged: 0 (required 0)"], True),
    (KIND_REPRODUCE_NARROW, [outcome(0), *(outcome(s, converged=False) for s in (1, 2, 3))],
     ["FAIL converged-seeds: 1/4 (required 2)",
      "PASS bounded-components-among-converged: 0 (required 0)"], False),
    (KIND_REPRODUCE_NARROW, [outcome(0, bounded=1), outcome(1),
                             outcome(2, converged=False, bounded=3)],
     ["PASS converged-seeds: 2/3 (required 2)",
      "FAIL bounded-components-among-converged: 1 (required 0)"], False),
    (KIND_REPRODUCE_NARROW, [outcome(0), errored(1), errored(2)],
     ["FAIL converged-seeds: 1/3 (required 2)",
      "PASS bounded-components-among-converged: 0 (required 0)"], False),
    (KIND_REPRODUCE_WIDE, [outcome(0, loops=1), outcome(1, loops=1)],
     ["PASS accurate-seeds: 2/2 (required 2)",
      "PASS origin-loop-seeds: 2/2 (required 2)"], True),
    (KIND_REPRODUCE_WIDE, [outcome(0, loops=1), outcome(1, accuracy=0.5, loops=1)],
     ["FAIL accurate-seeds: 1/2 (required 2)",
      "PASS origin-loop-seeds: 1/1 (required 1)"], False),
    (KIND_REPRODUCE_WIDE, [outcome(0, loops=1), outcome(1, bounded=1)],
     ["PASS accurate-seeds: 2/2 (required 2)",
      "FAIL origin-loop-seeds: 1/2 (required 2)"], False),
    (KIND_REPRODUCE_WIDE, [outcome(0, loops=1), errored(1)],
     ["FAIL accurate-seeds: 1/2 (required 2)",
      "PASS origin-loop-seeds: 1/1 (required 1)"], False),
    (KIND_SWEEP, [outcome(0), outcome(1)],
     ["PASS bounded-components: 0 (required 0; violations: 0)"], True),
    (KIND_SWEEP, [outcome(0, bounded=2, level=0.3), outcome(1), outcome(2, bounded=1)],
     ["FAIL bounded-components: 3 (required 0; violations: 2)"], False),
    (KIND_REPRODUCE_NARROW, [], ["UNTESTED reproduce-3a: no seeds"], True),
    (KIND_REPRODUCE_WIDE, [], ["UNTESTED reproduce-3b: no seeds"], True),
    (KIND_SWEEP, [], ["UNTESTED sweep-nonsingular: no networks"], True),
    (KIND_ANALYZE, [outcome(0, bounded=1, touching=2)],
     ["DONE analyze: bounded=1 touching=2"], True),
    (KIND_ANALYZE, [], ["DONE analyze: bounded=0 touching=0"], True),
], ids=["narrow-pass", "narrow-too-few-converged", "narrow-bounded", "narrow-errored-seed",
        "wide-pass", "wide-inaccurate", "wide-no-origin-loop", "wide-errored-seed",
        "sweep-pass", "sweep-violations", "narrow-untested", "wide-untested",
        "sweep-untested", "analyze-done", "analyze-empty"])
def test_verdict_lines(kind, outcomes, lines, passed):
    report = make_report(kind, {}, outcomes, True, 0.0)
    assert verdict_lines(report) == lines
    assert report_passed(report) is passed
