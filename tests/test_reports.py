import hashlib
import json

import pytest

from leveltopo import SIGMOID, NonSingularSweepSpec, init_weights, save_network
from leveltopo.analysis import THREADS_ENV, random_nonsingular_sweep
from leveltopo.cli import main
from leveltopo.reports import (KIND_ANALYZE, KIND_REPRODUCE_NARROW, KIND_REPRODUCE_WIDE,
                               KIND_SWEEP, dumps_report, encode_outcome, load_report,
                               make_report, report_passed, verdict_lines, write_report)

# The sha256 of a deterministic report's text without its `versions` member.
# Float bits, and so these digests, hold for the numpy and CPU they were taken
# on: numpy 2.4.6 on x86-64 (Intel Xeon), Python 3.11.  A change that alters a
# digest on purpose updates it here and says why.
PINNED_ON = "numpy 2.4.6 on x86-64"
WIDE_4_SEEDS_DIGEST = "b8af6f8e0d15f8d6f51f9f23815ebe7c8ea597fe95a464f93fb2f537d80cc9fa"


def report_digest(report: dict) -> str:
    return hashlib.sha256(dumps_report(
        {k: v for k, v in report.items() if k != "versions"}).encode()).hexdigest()


def test_deterministic_wide_report_is_pinned(tmp_path):
    rp = tmp_path / "r.json"
    assert main(["reproduce", "--paper-fig", "3b", "--seeds", "4", "--report", str(rp),
                 "--deterministic"]) == 0
    digest = report_digest(load_report(rp))
    assert digest == WIDE_4_SEEDS_DIGEST, (
        f"the 4-seed 3b report changed (reproduce-3b is now {digest}); "
        f"its digest holds for {PINNED_ON}")


def plain_json(report: dict) -> str:
    """The report encoded in one call, as the writer encoded it before it
    encoded each outcome on its own."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


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
      "PASS bounded-components-among-converged: 0 (required 0)",
      "PASS converged-without-component: 0 (required 0)"], True),
    (KIND_REPRODUCE_NARROW, [outcome(0), *(outcome(s, converged=False) for s in (1, 2, 3))],
     ["FAIL converged-seeds: 1/4 (required 2)",
      "PASS bounded-components-among-converged: 0 (required 0)",
      "PASS converged-without-component: 0 (required 0)"], False),
    (KIND_REPRODUCE_NARROW, [outcome(0, bounded=1), outcome(1),
                             outcome(2, converged=False, bounded=3)],
     ["PASS converged-seeds: 2/3 (required 2)",
      "FAIL bounded-components-among-converged: 1 (required 0)",
      "PASS converged-without-component: 0 (required 0)"], False),
    (KIND_REPRODUCE_NARROW, [outcome(0), outcome(1, touching=0),
                             outcome(2, converged=False, touching=0)],
     ["PASS converged-seeds: 2/3 (required 2)",
      "PASS bounded-components-among-converged: 0 (required 0)",
      "FAIL converged-without-component: 1 (required 0)"], False),
    (KIND_REPRODUCE_NARROW, [outcome(0), errored(1), errored(2)],
     ["FAIL converged-seeds: 1/3 (required 2)",
      "PASS bounded-components-among-converged: 0 (required 0)",
      "PASS converged-without-component: 0 (required 0)"], False),
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
], ids=["narrow-pass", "narrow-too-few-converged", "narrow-bounded",
        "narrow-converged-without-component", "narrow-errored-seed",
        "wide-pass", "wide-inaccurate", "wide-no-origin-loop", "wide-errored-seed",
        "sweep-pass", "sweep-violations", "narrow-untested", "wide-untested",
        "sweep-untested", "analyze-done", "analyze-empty"])
def test_verdict_lines(kind, outcomes, lines, passed):
    report = make_report(kind, {}, outcomes, True, 0.0)
    assert verdict_lines(report) == lines
    assert report_passed(report) is passed
    # an encoded outcome's summary holds everything each kind's rule reads
    encoded = make_report(kind, {}, [encode_outcome(o) for o in outcomes], True, 0.0)
    assert encoded["verdicts"] == report["verdicts"]
    assert verdict_lines(encoded) == lines
    assert dumps_report(encoded) == dumps_report(report) == plain_json(report)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("count", [0, 1, 6])
def test_worker_encoded_sweep_report_is_the_plain_encoding(monkeypatch, tmp_path, count,
                                                           threads):
    monkeypatch.setenv(THREADS_ENV, threads)
    spec = NonSingularSweepSpec(count=count)
    entries = random_nonsingular_sweep(spec)
    dicts = [json.loads(e.text) for e in entries]
    assert [e.summary for e in entries] == [encode_outcome(d).summary for d in dicts]
    config = {"spec": spec.to_dict(), "deterministic": True}
    report = make_report(KIND_SWEEP, config, list(entries), True, 0.0)
    spliced = dumps_report(report)
    assert spliced == plain_json(make_report(KIND_SWEEP, config, dicts, True, 0.0))
    assert ('"outcomes":[]' in spliced) is (count == 0)
    # the writer streams the same text
    write_report(report, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text() == spliced


def test_only_the_top_level_outcomes_are_spliced(tmp_path):
    model = tmp_path / 'a"outcomes":[]],"outcomes":[' / "model.json"
    model.parent.mkdir()
    save_network(init_weights([2, 3, 1], SIGMOID, 0), model)
    rp = tmp_path / "r.json"
    assert main(["analyze", "--model", str(model), "--window=-2,2,-2,2",
                 "--resolution", "21", "--levels", "0.5", "--report", str(rp),
                 "--deterministic"]) == 0
    text = rp.read_text()
    report = json.loads(text)
    assert report["config"]["model"] == str(model)
    assert len(report["outcomes"]) == 1
    assert text == plain_json(report)
