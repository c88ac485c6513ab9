"""The calls the benchmark makes and the members its checks read, at toy sizes.

``perfbench/child.py`` runs each workload through these public calls, and
``perfbench/checks.py`` and ``perfbench/tracer.py`` read the members pinned
here.  A change that drops or renames one of them fails the benchmark's
checks; these tests make it fail the test suite first.  ``perfbench`` is not
imported: the tests restate what it reads, citing the line that reads it.
"""

import dataclasses
import json

import numpy as np

import leveltopo as lt
from leveltopo import analysis, cli, contours, fields, reports


def assert_network(net):
    # checks.py:51 (activation), 69-82 (forward), 87 (hidden widths)
    assert isinstance(net["activation"]["kind"], str)
    assert isinstance(net["final_activation"], bool)
    for layer in net["layers"]:
        w = np.asarray(layer["weights"], dtype=np.float64)
        assert w.shape == (len(layer["bias"]), w.shape[1])


def assert_level_entry(lv, with_components):
    assert isinstance(lv["level"], float)  # checks.py:311
    assert isinstance(lv["bounded_final"], int)  # checks.py:230
    assert isinstance(lv["bounded_enclosing_origin"], int)  # checks.py:282
    rep = lv["report"]  # checks.py:223, 270
    assert rep["level"] == lv["level"]  # checks.py:132, 251
    assert len(rep["window"]["lo"]) == len(rep["window"]["hi"]) == 2  # checks.py:105-106
    assert len(rep["resolution"]) == 2  # checks.py:107, 168
    # checks.py:272-273 zips the components with their classifications
    assert len(lv["final_classifications"]) == len(rep["components"])
    assert set(lv["final_classifications"]) <= {"bounded", "boundary_touching"}
    for comp in rep["components"]:
        for chain in comp["polylines"]:  # checks.py:127, 171
            assert np.asarray(chain, dtype=np.float64).shape[1] == 2
    if with_components:
        assert rep["components"]


def test_reproduction_report(tmp_path, monkeypatch):
    # child.py:57-67 (run_reproduction)
    monkeypatch.setenv(analysis.THREADS_ENV, "1")
    preset = analysis.reproduction_spec("3b", (0, 1))
    spec = dataclasses.replace(preset, resolution=41,
                               train=dataclasses.replace(preset.train, steps=50))
    sweep = analysis.run_experiment(spec)
    report = reports.make_report(
        reports.KIND_REPRODUCE_WIDE, {"paper_fig": "3b", "spec": spec.to_dict(),
                                      "deterministic": False},
        [o.to_dict() for o in sweep.outcomes], False, 0.0)
    reports.write_report(report, tmp_path / "report.json")
    report = json.loads((tmp_path / "report.json").read_text())
    outcomes = report["outcomes"]  # checks.py:210
    assert [o["seed"] for o in outcomes] == [0, 1]  # checks.py:211
    for o in outcomes:
        assert o["error"] is None  # checks.py:214-216
        assert isinstance(o["final_loss"], float)  # checks.py:188, 193, 196
        assert o["steps_run"] == 50  # checks.py:189
        assert isinstance(o["converged"], bool)  # checks.py:196, 200, 254
        assert isinstance(o["accuracy"], float)  # checks.py:204
        assert_network(o["network"])  # checks.py:185, 245, 266, 285
        assert len(o["levels"]) == 1  # checks.py:250, 269
        assert_level_entry(o["levels"][0], with_components=False)
        assert o["levels"][0]["level"] == 0.5  # checks.py:251


def test_sweep_report(tmp_path, monkeypatch):
    # child.py:138 (the nonsingular-sweep workload through the CLI)
    monkeypatch.setenv(analysis.THREADS_ENV, "1")
    path = tmp_path / "report.json"
    assert cli.main(["sweep-nonsingular", "--count", "2", "--seed", "5",
                     "--resolution", "41", "--report", str(path)]) == 0
    report = json.loads(path.read_text())
    spec = report["config"]["spec"]  # checks.py:296
    assert (spec["seed"], spec["count"]) == (5, 2)  # checks.py:297
    assert [o["seed"] for o in report["outcomes"]] == [0, 1]  # checks.py:210-211
    for o in report["outcomes"]:
        assert o["error"] is None  # checks.py:214-216
        assert_network(o["network"])  # checks.py:300
        assert len(o["levels"]) == 5  # checks.py:306
        for lv in o["levels"]:  # checks.py:308
            assert_level_entry(lv, with_components=True)


def test_oracle_audit_calls():
    # child.py:105-116 (audit_oracle), on one net at a toy resolution
    net = lt.init_weights([2, 3, 2, 1], lt.SIGMOID, 3)
    window = lt.Window(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    field = lt.sample_grid(lt.network_scalar_fn(net), window, (61, 61))
    delta = 1e-3 * float(np.ptp(field.values))
    levels = fields.sample_noncritical_levels(field, 2, np.random.default_rng(0))
    compares = [contours.band_oracle_compare(field, float(level), delta) for level in levels]
    assert len(compares) == 2
    for c in compares:  # checks.py:366
        assert c["agree"] is True and c["issues"] == []
        assert c["contour_count"] == c["band_count"] > 0
    json.dumps({"levels": [float(v) for v in levels], "compares": compares})  # child.py:116, 129


def test_traced_members():
    # tracer.py:38-50 counts these members of the traced calls' results
    field = lt.sample_grid(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2,
                           lt.Window(np.array([-2.0, -2.0]), np.array([2.0, 2.0])), (21, 21))
    assert field.values.size == 441  # tracer.py:38
    soup = contours.marching_squares(field, 1.0)
    assert len(soup.segments) > 0  # tracer.py:46
    assert len(contours.link_components(soup)) == 1  # tracer.py:50
    regions = fields.region_components(field, (0.9, 1.1))
    assert all(isinstance(c.cell_count, int) for c in regions.components)  # tracer.py:42
    assert sum(c.cell_count for c in regions.components) > 0

