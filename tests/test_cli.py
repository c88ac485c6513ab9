import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from leveltopo import analysis, cli, training
from leveltopo.cli import main, parse_activation, parse_levels, parse_window, validate_report
from leveltopo.contours import extract_components
from leveltopo.fields import network_scalar_fn, sample_grid
from leveltopo.network import Window, load_network, network_from_dict, save_network
from leveltopo.reports import compute_verdicts, dumps_report, level_entry, load_report
from leveltopo.svgplot import outcome_svg
from leveltopo import (RELU, SIGMOID, Layer, Network, Optimizer, TrainConfig, accuracy,
                       init_weights, load_dataset, one_to_one_relu, train)
from test_reports import PINNED_ON


class TestFlagParsing:
    def test_activation_forms(self):
        assert parse_activation("sigmoid") == SIGMOID
        assert parse_activation("one_to_one_relu:5") == one_to_one_relu(5)
        with pytest.raises(ValueError):
            parse_activation("swish")
        with pytest.raises(ValueError):
            parse_activation("one_to_one_relu")
        with pytest.raises(ValueError):
            parse_activation("sigmoid:2")

    def test_window_forms(self):
        assert parse_window("auto") is None
        w = parse_window("-4,4,-3,3")
        np.testing.assert_array_equal(w.lo, [-4, -3])
        np.testing.assert_array_equal(w.hi, [4, 3])
        with pytest.raises(ValueError):
            parse_window("1,2,3")

    def test_levels_forms(self):
        assert parse_levels("0.25,0.75") == (0.25, 0.75)
        assert parse_levels("0.5") == (0.5,)
        with pytest.raises(ValueError):
            parse_levels("decision:0.5")


class TestGenData:
    def test_writes_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["gen-data", "--seed", "7", "--inner", "500", "--ring", "1000",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1500
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["seed"] == 7 and meta["generator"] == "ring"

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_malformed_sidecar_is_not_read(self, tmp_path, dataset, model, command):
        # the sidecar is for the reader; no command opens it
        data = tmp_path / "d.csv"
        data.write_bytes(dataset.read_bytes())
        Path(f"{data}.meta.json").write_text("{bad\n")
        flags = {"train": ["--arch", "2,3,1", "--steps", "5", "--out", str(tmp_path / "m.json")],
                 "analyze": ["--model", str(model), "--resolution", "21"]}[command]
        assert main([command, "--data", str(data), *flags]) == 0

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen-data", "--seed", "3", "--inner", "40", "--ring", "60", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_separability_guard_exit_2(self, tmp_path):
        code = main(["gen-data", "--ring-radius", "0.01", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 2


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ring.csv"
    assert main(["gen-data", "--seed", "0", "--inner", "60", "--ring", "120",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def model(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["train", "--data", str(dataset), "--arch", "2,3,1",
                 "--steps", "600", "--seed", "1", "--out", str(path)]) == 0
    return path


# a data file's second row, and the error it gives after "<file>: line 2: "
BAD_ROWS = {
    "short-row": ("1.0,1", "expected 2 values before the label, as the first row has, got 1"),
    "not-a-number": ("abc,1.0,1", "could not convert string to float: 'abc'"),
    "fractional-label": ("1.0,1.0,0.5", "invalid literal for int() with base 10: '0.5'"),
}


class TestTrain:
    def test_steps_zero_usage_error(self, tmp_path, dataset):
        code = main(["train", "--data", str(dataset), "--arch", "2,3,1",
                     "--steps", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_writes_model_and_history(self, tmp_path, dataset):
        model_path = tmp_path / "m.json"
        hist_path = tmp_path / "h.csv"
        assert main(["train", "--data", str(dataset), "--arch", "2,2,1",
                     "--steps", "50", "--out", str(model_path),
                     "--history", str(hist_path)]) == 0
        net = load_network(model_path)
        assert net.widths == (2, 2, 1)
        lines = hist_path.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 51

    @pytest.mark.parametrize("flags,cfg", [
        ([], TrainConfig(steps=50, seed=0)),
        (["--batch-size", "64", "--optimizer", "sgd"],
         TrainConfig(optimizer=Optimizer.SGD, steps=50, batch_size=64, seed=0)),
    ], ids=["full-batch", "mini-batch-sgd"])
    def test_history_rows_are_the_training_losses(self, tmp_path, dataset, flags, cfg):
        hist_path = tmp_path / "h.csv"
        assert main(["train", "--data", str(dataset), "--arch", "2,2,1", "--steps", "50",
                     "--out", str(tmp_path / "m.json"), "--history", str(hist_path),
                     *flags]) == 0
        _, history = train(init_weights([2, 2, 1], SIGMOID, 0), load_dataset(dataset), cfg)
        assert hist_path.read_text().splitlines() == (
            ["step,loss"] + [f"{k},{loss!r}" for k, loss in enumerate(history.tolist(), 1)])

    # The sha256 of each file the commands write, pinned like the report
    # digests in test_reports.  A mini-batch run's bits depend on the order
    # its batches are drawn in, which test_history_rows_are_the_training_losses
    # cannot see: the CLI and train() draw it with the same code.
    MINI_BATCH_PINS = [
        (["--arch", "2,3,1", "--steps", "400", "--batch-size", "64", "--optimizer", "sgd",
          "--lr", "0.5", "--seed", "9"],
         "f7f63d1c36b81774e49f2775001f66039b6361c551abb8d23e6b5d120b618125",
         "03782dddeb7a979be7b404a9ccc82002cee56abca2c1f929c2ddba297edfdf4c"),
        (["--arch", "2,2,2,1", "--steps", "300", "--batch-size", "100", "--seed", "4"],
         "d0356224e0a318c08a57cbaa8aa8b5253b2abfb0205a27ad6a3fe40b064f7f90",
         "dd3c364a25c57fc0b6de10a5ee0057799b90ee14fc128051383897db122b6e94"),
    ]

    def test_mini_batch_outputs_are_pinned(self, tmp_path):
        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        data = tmp_path / "d.csv"
        assert main(["gen-data", "--seed", "3", "--inner", "500", "--ring", "1000",
                     "--out", str(data)]) == 0
        assert digest(data) == (
            "e3e6ffd4ca4b888ce3c82df5759f7fa9639867b7810ebf4294baa1170b1a1317"), PINNED_ON
        assert digest(tmp_path / "d.csv.meta.json") == (
            "9e367165484ebeab25119666cdc62d2d5f7aa243aed35c30c02238a7352a1d9d"), PINNED_ON
        for k, (flags, model_digest, history_digest) in enumerate(self.MINI_BATCH_PINS):
            model_path, hist_path = tmp_path / f"m{k}.json", tmp_path / f"h{k}.csv"
            assert main(["train", "--data", str(data), "--out", str(model_path),
                         "--history", str(hist_path), *flags]) == 0
            assert (digest(model_path), digest(hist_path)) == (
                model_digest, history_digest), f"{flags} (pinned on {PINNED_ON})"
        # the SVG's title names the model file, so the pin holds for m0.json only
        svg = tmp_path / "a.svg"
        assert main(["analyze", "--model", str(tmp_path / "m0.json"), "--data", str(data),
                     "--levels", "0.5,0.3", "--svg", str(svg), "--deterministic"]) == 0
        assert digest(svg) == (
            "0c6e0e0bc5e813cb9d442877889c67884d5f835a928af1261e7b29518dfff7d3"), PINNED_ON
        ET.parse(svg)

    def test_history_too_large_for_memory_exit_3(self, tmp_path, dataset, monkeypatch,
                                                  capsys):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(training, "train_stack", no_memory)
        assert main(["train", "--data", str(dataset), "--arch", "2,2,1",
                     "--out", str(tmp_path / "m.json")]) == 3
        assert "runtime error: Unable to allocate 74.5 GiB" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["2", "7"])
    def test_label_outside_0_1_exit_2(self, tmp_path, capsys, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.0,0.0,0\n1.0,1.0,{label}\n2.0,0.5,1\n")
        assert main(["train", "--data", str(path), "--arch", "2,3,1", "--steps", "5",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: dataset labels must be 0 or 1, got {label}\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("row,message", BAD_ROWS.values(), ids=BAD_ROWS.keys())
    def test_bad_data_row_names_file_and_line_exit_2(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.0,0.0,0\n{row}\n2.0,0.5,1\n")
        assert main(["train", "--data", str(path), "--arch", "2,3,1", "--steps", "5",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: {message}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--lr", "nan"], "learning_rate (--lr) must be finite and positive, got nan"),
        (["--lr", "inf"], "learning_rate (--lr) must be finite and positive, got inf"),
        (["--target-loss", "nan"], "target_loss (--target-loss) must be finite, got nan"),
    ], ids=["lr-nan", "lr-inf", "target-loss-nan"])
    def test_non_finite_setting_exit_2(self, tmp_path, dataset, capsys, flags, message):
        assert main(["train", "--data", str(dataset), "--arch", "2,3,1", "--steps", "5",
                     "--out", str(tmp_path / "m.json"), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--steps", "0"], "steps (--steps) must be >= 1, got 0"),
        (["--batch-size", "0"], "batch_size (--batch-size) must be >= 1, got 0"),
        (["--batch-size", "99999"],
         "batch_size (--batch-size) must be at most the dataset size 180, got 99999"),
        (["--arch", "2,3,2"], "output width (the last --arch width) must be 1, "
                              "one output per label, got 2"),
    ], ids=["steps-zero", "batch-size-zero", "batch-size-too-large", "two-outputs"])
    def test_bad_count_names_its_flag_exit_2(self, tmp_path, dataset, capsys, flags, message):
        assert main(["train", "--data", str(dataset), "--arch", "2,3,1", "--steps", "5",
                     "--out", str(tmp_path / "m.json"), *flags]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_deep_narrow_arch_parses(self, tmp_path, dataset):
        assert main(["train", "--data", str(dataset), "--arch", "2,2,2,2,2,2,2,1",
                     "--steps", "5", "--out", str(tmp_path / "m.json")]) == 0


class TestAnalyze:
    def test_report_svg_and_validation(self, tmp_path, dataset, model):
        report_path = tmp_path / "r.json"
        svg_path = tmp_path / "p.svg"
        assert main(["analyze", "--model", str(model), "--data", str(dataset),
                     "--resolution", "81", "--report", str(report_path),
                     "--svg", str(svg_path), "--deterministic"]) == 0
        report = load_report(report_path)
        assert validate_report(report) == []
        svg = svg_path.read_text()
        assert svg.startswith("<?xml") and "<polyline" in svg
        assert "1970-01-01" in svg  # deterministic timestamp
        # the trained wide model closes a loop: drawn in the bounded color
        assert report["outcomes"][0]["bounded_final"] >= 1
        assert "#d62728" in svg

    def test_svg_is_drawn_from_the_report_on_disk(self, tmp_path, dataset, model):
        rp, svg = tmp_path / "r.json", tmp_path / "p.svg"
        assert main(["analyze", "--model", str(model), "--data", str(dataset),
                     "--resolution", "41", "--levels", "0.5,0.3", "--report", str(rp),
                     "--svg", str(svg), "--deterministic"]) == 0
        data = load_dataset(dataset)
        assert outcome_svg(load_report(rp)["outcomes"][0], deterministic=True,
                           title=f"analysis of {model.name}", points=data.points,
                           labels=data.labels) == svg.read_text()

    def test_title_is_xml_escaped(self, tmp_path, model):
        path, svg = tmp_path / "a&b<c>.json", tmp_path / "p.svg"
        path.write_bytes(model.read_bytes())
        assert main(["analyze", "--model", str(path), "--window=-4,4,-4,4",
                     "--resolution", "21", "--svg", str(svg), "--deterministic"]) == 0
        title = ET.parse(svg).getroot().find("{http://www.w3.org/2000/svg}title")
        assert title.text == "analysis of a&b<c>.json"

    def test_fill_is_coloured_by_the_network_at_cell_centres(self):
        # -|x - y| + 0.01 (x + y), exactly: a ridge along the diagonal that the
        # average of a cell's four corners reads as a dip
        ridge = Network(2, (Layer(np.array([[1.0, -1.0], [-1.0, 1.0], [0.01, 0.01]]),
                                  np.array([0.0, 0.0, 100.0])),
                            Layer(np.array([[-1.0, -1.0, 1.0]]), np.array([-100.0]))),
                        RELU, final_activation=False)
        level = 0.0119
        config = {"model": "ridge.json", "window": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5]},
                  "resolution": 41, "levels": [level], "deterministic": True}
        outcome = analysis.analyze_outcome(ridge, config)[0].to_dict()
        root = ET.fromstring(outcome_svg(outcome, deterministic=True))
        fill = root.find("{http://www.w3.org/2000/svg}g[@shape-rendering='crispEdges']")
        colours = [rect.get("fill") for rect in fill]
        axis = np.linspace(-1.5, 1.5, 65)
        mid = 0.5 * (axis[:-1] + axis[1:])
        centres = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1).reshape(-1, 2)
        values = network_scalar_fn(ridge)(centres)
        assert colours == ["#fde5cf" if v >= level else "#d6e6f7" for v in values]

    def test_accuracy_is_printed_not_stored(self, tmp_path, dataset, model, capsys):
        # the config does not name the data, so the report could not check it
        rp = tmp_path / "r.json"
        assert main(["analyze", "--model", str(model), "--data", str(dataset),
                     "--resolution", "41", "--report", str(rp), "--deterministic"]) == 0
        acc = accuracy(load_network(model), load_dataset(dataset))
        assert f"accuracy {acc:.4f} on {dataset}" in capsys.readouterr().out.splitlines()
        assert load_report(rp)["outcomes"][0]["accuracy"] is None

    def test_deterministic_outputs_identical(self, tmp_path, dataset, model):
        files = []
        for tag in ("a", "b"):
            rp, sp = tmp_path / f"r{tag}.json", tmp_path / f"s{tag}.svg"
            assert main(["analyze", "--model", str(model), "--data", str(dataset),
                         "--resolution", "41", "--report", str(rp), "--svg", str(sp),
                         "--deterministic"]) == 0
            files.append((rp.read_bytes(), sp.read_bytes()))
        assert files[0] == files[1]

    def test_model_data_mismatch_exit_2(self, tmp_path, dataset):
        bad = Network(3, (Layer(np.ones((1, 3)), np.zeros(1)),), SIGMOID)
        bad_path = tmp_path / "bad.json"
        save_network(bad, bad_path)
        code = main(["analyze", "--model", str(bad_path), "--data", str(dataset)])
        assert code == 2

    def test_window_auto_requires_data(self, model):
        assert main(["analyze", "--model", str(model)]) == 2

    def test_unknown_level_spec_exit_2(self, model, dataset, capsys):
        # levels are numbers: a tagged spec, the old ``decision:<cut>`` too, is a usage error
        for text in ("cutoff:0.5", "decision:0.5"):
            with pytest.raises(SystemExit) as exited:
                main(["analyze", "--model", str(model), "--data", str(dataset),
                      "--levels", text])
            assert exited.value.code == 2
            assert (f"argument --levels: could not convert string to float: {text!r}"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("row,message", BAD_ROWS.values(), ids=BAD_ROWS.keys())
    def test_bad_data_row_names_file_and_line_exit_2(self, tmp_path, model, capsys, row,
                                                     message):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.0,0.0,0\n{row}\n2.0,0.5,1\n")
        assert main(["analyze", "--model", str(model), "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: {message}\n"

    @pytest.mark.parametrize("net,window,message", [
        (Network(2, (Layer(np.ones((2, 2)), np.zeros(2)),), SIGMOID), "-1,1,-1,1",
         "analysis needs a scalar-valued model"),
        (Network(2, (Layer(np.ones((1, 2)), np.zeros(1)),), SIGMOID), "-1,1,-1,1,-1,1",
         "model/window mismatch: model input dim 2, window dim 3"),
        (Network(3, (Layer(np.ones((1, 3)), np.zeros(1)),), SIGMOID), "-1,1,-1,1,-1,1",
         "analysis needs a 2-input model, got input dim 3 from --model {path}"),
    ], ids=["two-outputs", "window-dim", "three-inputs"])
    def test_model_that_cannot_be_analyzed_exit_2(self, tmp_path, capsys, net, window,
                                                  message):
        path = tmp_path / "m.json"
        save_network(net, path)
        assert main(["analyze", "--model", str(path), f"--window={window}"]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    def test_unwritable_svg_still_writes_the_report_exit_3(self, tmp_path, model, capsys):
        rp, svg = tmp_path / "r.json", tmp_path / "missing" / "x.svg"
        assert main(["analyze", "--model", str(model), "--window=-1,1,-1,1",
                     "--resolution", "21", "--svg", str(svg), "--report", str(rp)]) == 3
        assert "No such file or directory" in capsys.readouterr().err
        assert validate_report(load_report(rp)) == []

    def test_model_that_is_not_json_names_its_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("not json\n")
        assert main(["analyze", "--model", str(path), "--window=-1,1,-1,1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: Expecting value: line 1 column 1 (char 0)\n")

    def test_model_missing_layers_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format_version": 1, "input_dim": 2}))
        assert main(["analyze", "--model", str(path), "--window=-1,1,-1,1"]) == 2
        assert "missing key 'layers'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("final_activation", "false"), ("final_activation", 0),
        ("input_dim", 2.0), ("input_dim", True), ("input_dim", "2"),
    ])
    def test_model_key_of_wrong_json_type_exit_2(self, tmp_path, model, capsys, key, value):
        d = json.loads(model.read_text())
        d[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        assert main(["analyze", "--model", str(path), "--window=-1,1,-1,1",
                     "--resolution", "21"]) == 2
        assert f"network key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("sharpness", [2.5, True])
    def test_model_with_non_integer_sharpness_exit_2(self, tmp_path, model, capsys,
                                                     sharpness):
        d = json.loads(model.read_text())
        d["activation"] = {"kind": "one_to_one_relu", "sharpness": sharpness}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        assert main(["analyze", "--model", str(path), "--window=-1,1,-1,1",
                     "--resolution", "21"]) == 2
        assert (f"one_to_one_relu requires integer sharpness >= 1, got {sharpness!r}"
                in capsys.readouterr().err)

    def test_level_outside_range_warns_but_succeeds(self, tmp_path, model, dataset,
                                                    capsys):
        rp = tmp_path / "r.json"
        assert main(["analyze", "--model", str(model), "--data", str(dataset),
                     "--resolution", "41", "--levels", "99.0",
                     "--report", str(rp), "--deterministic"]) == 0
        err = capsys.readouterr().err
        assert "outside achieved value range" in err
        report = load_report(rp)
        assert report["outcomes"][0]["levels"][0]["report"]["components"] == []

    def test_vertical_line_stub_model(self, tmp_path):
        # f(x, y) = x with a linear head: level 0 is the y axis
        stub = Network(2, (Layer(np.array([[1.0, 0.0]]), np.zeros(1)),), SIGMOID,
                       final_activation=False)
        stub_path = tmp_path / "stub.json"
        save_network(stub, stub_path)
        svg_path = tmp_path / "stub.svg"
        assert main(["analyze", "--model", str(stub_path), "--window=-2,2,-2,2",
                     "--resolution", "41", "--levels", "0.0",
                     "--svg", str(svg_path), "--deterministic"]) == 0
        svg = svg_path.read_text()
        # boundary-touching components are drawn in the touching color
        assert "#1f77b4" in svg and "#d62728" not in svg


class TestSweepCommand:
    def test_small_sweep_passes(self, tmp_path):
        rp = tmp_path / "sweep.json"
        code = main(["sweep-nonsingular", "--count", "3", "--levels-per-net", "2",
                     "--resolution", "61", "--report", str(rp), "--deterministic"])
        assert code == 0
        report = load_report(rp)
        assert report["verdicts"]["sweep-nonsingular"]["status"] == "PASS"
        assert validate_report(report) == []

    def test_deterministic_reports_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            rp = tmp_path / f"{tag}.json"
            assert main(["sweep-nonsingular", "--count", "2", "--levels-per-net", "1",
                         "--resolution", "41", "--report", str(rp),
                         "--deterministic"]) == 0
            blobs.append(rp.read_bytes())
        assert blobs[0] == blobs[1]

    def test_injected_singular_exit_3(self, singular_second_net):
        assert main(["sweep-nonsingular", "--count", "2", "--levels-per-net", "1",
                     "--resolution", "41"]) == 3

    def test_count_zero_untested(self, capsys):
        assert main(["sweep-nonsingular", "--count", "0"]) == 0
        assert "UNTESTED" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-3"])
    def test_delta_not_finite_and_positive_exit_2(self, tmp_path, capsys, value):
        rp = tmp_path / "r.json"
        assert main(["sweep-nonsingular", "--count", "1", f"--delta={value}",
                     "--report", str(rp), "--deterministic"]) == 2
        assert "delta (--delta) must be finite and positive" in capsys.readouterr().err
        assert not rp.exists()


class TestReproduceCommand:
    def test_wide_small_run(self, tmp_path, capsys):
        rp = tmp_path / "rep.json"
        svg_dir = tmp_path / "svgs"
        code = main(["reproduce", "--paper-fig", "3b", "--seeds", "2",
                     "--report", str(rp), "--svg-dir", str(svg_dir),
                     "--deterministic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert (svg_dir / "seed000.svg").exists()
        assert validate_report(load_report(rp)) == []

    def test_svg_rebuilds_from_the_report_on_disk(self, tmp_path):
        rp, svg_dir = tmp_path / "r.json", tmp_path / "svgs"
        assert main(["reproduce", "--paper-fig", "3b", "--seeds", "2", "--report", str(rp),
                     "--svg-dir", str(svg_dir), "--deterministic"]) == 0
        outcomes = load_report(rp)["outcomes"]
        assert [o["seed"] for o in outcomes] == [0, 1]
        for o in outcomes:
            assert outcome_svg(o, deterministic=True) == \
                (svg_dir / f"seed{o['seed']:03d}.svg").read_text()
            ET.parse(svg_dir / f"seed{o['seed']:03d}.svg")
        # the sha256 of each SVG, pinned like the report digests in test_reports
        assert [hashlib.sha256((svg_dir / f"seed{s:03d}.svg").read_bytes()).hexdigest()
                for s in (0, 1)] == [
            "dae1bb600d959358daf66a28270514787be4ec14a254a8f22792b0ae7adc20c9",
            "c845a2e85ee675912729583f49c68baf06ff24dab62e84bb16e28dda07a94c9d"], PINNED_ON

    def test_seeds_zero_untested(self, capsys):
        assert main(["reproduce", "--paper-fig", "3b", "--seeds", "0"]) == 0
        assert "UNTESTED" in capsys.readouterr().out

    def test_missing_fig_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["reproduce", "--seeds", "1"])
        assert exited.value.code == 2
        assert "--paper-fig" in capsys.readouterr().err

    def test_diverged_seeds_write_no_svg(self, tmp_path, monkeypatch, capsys, diverging_spec):
        monkeypatch.setattr(cli, "reproduction_spec", lambda fig, seeds: diverging_spec)
        rp, svg_dir = tmp_path / "r.json", tmp_path / "svgs"
        assert main(["reproduce", "--paper-fig", "3b", "--seeds", "2", "--svg-dir",
                     str(svg_dir), "--report", str(rp), "--deterministic"]) == 1
        assert "FAIL accurate-seeds: 0/2" in capsys.readouterr().out
        assert list(svg_dir.iterdir()) == []
        assert [o["error"] for o in load_report(rp)["outcomes"]] == \
            ["loss diverged at step 2"] * 2
        assert main(["validate-report", str(rp)]) == 0

    def test_svg_dir_that_is_a_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def never(spec):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", never)
        blocker = tmp_path / "F"
        blocker.write_text("")
        assert main(["reproduce", "--paper-fig", "3b", "--seeds", "1",
                     "--svg-dir", str(blocker)]) == 3
        assert "File exists" in capsys.readouterr().err


class TestOptionChecks:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "m.json", "--escalate", "1"],
        ["sweep-nonsingular", "--count", "1", "--escalate", "1"],
    ], ids=["analyze", "sweep-nonsingular"])
    def test_escalate_flag_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "--escalate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reproduce", "sweep-nonsingular"])
    def test_config_flag_is_gone(self, capsys, command):
        required = ["--paper-fig", "3b"] if command == "reproduce" else []
        with pytest.raises(SystemExit) as exited:
            main([command, *required, "--config", "c.json"])
        assert exited.value.code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["reproduce", "--paper-fig", "3b", "--seeds", "-3"], "--seeds"),
        (["sweep-nonsingular", "--count", "1", "--resolution", "21",
          "--levels-per-net", "0"], "--levels-per-net"),
        (["sweep-nonsingular", "--count", "-2"], "--count"),
        (["sweep-nonsingular", "--depths=-1"], "--depths"),
        (["sweep-nonsingular", "--window=-1,1,-1,1,-1,1"], "--window"),
        (["sweep-nonsingular", "--resolution", "1"], "--resolution"),
        (["analyze", "--model", "m.json", "--resolution", "1"], "--resolution"),
        (["gen-data", "--inner", "0", "--out", "d.csv"], "n_inner (--inner) must be >= 1"),
        (["gen-data", "--ring", "-1", "--out", "d.csv"], "n_ring (--ring) must be >= 1"),
        (["gen-data", "--inner-sigma", "-1", "--out", "d.csv"],
         "inner_sigma (--inner-sigma) must be finite and >= 0, got -1.0"),
        (["gen-data", "--ring-sigma", "-1", "--out", "d.csv"],
         "ring_sigma (--ring-sigma) must be finite and >= 0, got -1.0"),
        (["gen-data", "--ring-sigma", "nan", "--out", "d.csv"],
         "ring_sigma (--ring-sigma) must be finite and >= 0, got nan"),
        (["gen-data", "--ring-radius", "inf", "--out", "d.csv"],
         "ring_radius (--ring-radius) must be finite, got inf"),
        (["gen-data", "--ring-radius", "1", "--out", "d.csv"], "classes not separable: need "
         "ring_radius (--ring-radius) > 3*inner_sigma (--inner-sigma), got 1.0 <= 1.5"),
        (["train", "--data", "{data}", "--arch", "2", "--out", "m.json"],
         "architecture (--arch) must be two or more widths >= 1, got [2]"),
        (["train", "--data", "{data}", "--arch", "2,0,1", "--out", "m.json"],
         "architecture (--arch) must be two or more widths >= 1, got [2, 0, 1]"),
        (["train", "--data", "{data}", "--arch", "3,3,1", "--out", "m.json"],
         "input width (the first --arch width) must be the dataset dim 2, got 3"),
        (["train", "--data", "{data}", "--arch", "2,3,1", "--loss", "bce",
          "--activation", "tanh", "--out", "m.json"],
         "loss bce (--loss) needs a sigmoid final activation (--activation)"),
        (["sweep-nonsingular", "--activation", "relu"],
         "activation (--activation) must be one-to-one for a non-singular sweep, got relu"),
    ])
    def test_vacuous_or_negative_count_exit_2(self, capsys, dataset, argv, flag):
        assert main([arg.format(data=dataset) for arg in argv]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["sweep-nonsingular", "--depths", "1,a"],
         "argument --depths: invalid literal for int() with base 10: 'a'"),
        (["sweep-nonsingular", "--window=1,2,a,b"],
         "argument --window: could not convert string to float: 'a'"),
        (["sweep-nonsingular", "--window=1,2,3"],
         "argument --window: window must be x_lo,x_hi,y_lo,y_hi[,...], got '1,2,3'"),
        # auto is analyze's doubled data box; a sweep has no data
        (["sweep-nonsingular", "--count", "0", "--window", "auto"],
         "argument --window: auto (the doubled data box) needs data"),
        (["sweep-nonsingular", "--activation", "one_to_one_relu:x"],
         "argument --activation: invalid literal for int() with base 10: 'x'"),
        (["analyze", "--model", "m.json", "--levels", "0.3,x"],
         "argument --levels: could not convert string to float: 'x'"),
        (["train", "--data", "d.csv", "--arch", "2,x,1", "--out", "m.json"],
         "argument --arch: invalid literal for int() with base 10: 'x'"),
        (["train", "--data", "d.csv", "--arch", "2,3,1", "--activation", "swish",
          "--out", "m.json"], "argument --activation: unknown activation 'swish'"),
        (["analyze", "--model", "m.json", "--window=-inf,4,-4,4"],
         "argument --window: window needs lo < hi per axis and a finite extent"),
        (["sweep-nonsingular", "--window=-4,inf,-4,4"],
         "argument --window: window needs lo < hi per axis and a finite extent"),
        (["sweep-nonsingular", "--window=-4,4,nan,4"],
         "argument --window: window needs lo < hi per axis and a finite extent"),
        (["analyze", "--model", "m.json", "--window=-1e308,1e308,-4,4"],
         "argument --window: window needs lo < hi per axis and a finite extent"),
        # the extent is finite, its diagonal is not
        (["analyze", "--model", "m.json", "--window=-8e307,8e307,-4,4"],
         "argument --window: window needs lo < hi per axis and a finite extent"),
        (["sweep-nonsingular", "--window=-8e307,8e307,-8e307,8e307"],
         "argument --window: window needs lo < hi per axis and a finite extent"),
        (["analyze", "--model", "m.json", "--levels", "nan"],
         "argument --levels: levels must be finite, got 'nan'"),
        (["analyze", "--model", "m.json", "--levels", "0.5,inf"],
         "argument --levels: levels must be finite, got '0.5,inf'"),
    ], ids=["depths", "window-float", "window-arity", "sweep-window-auto", "sharpness",
            "levels", "arch", "activation", "window-inf", "sweep-window-inf",
            "sweep-window-nan", "window-extent-overflows", "window-diagonal-overflows",
            "sweep-window-diagonal-overflows", "levels-nan", "levels-inf"])
    def test_unparsable_flag_value_is_named_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,seed", [
        (["gen-data", "--seed", "-1", "--out", "d.csv"], -1),
        (["train", "--data", "d.csv", "--arch", "2,3,1", "--seed", "-1", "--out", "m.json"], -1),
        (["sweep-nonsingular", "--seed", "-3"], -3),
    ], ids=["gen-data", "train", "sweep-nonsingular"])
    def test_negative_seed_is_named_exit_2(self, capsys, argv, seed):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert (f"argument --seed: must be a non-negative integer, got {seed}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "{path}", "--window=-1,1,-1,1"],
        ["train", "--data", "{path}", "--arch", "2,3,1", "--out", "{tmp}/m.json"],
        ["analyze", "--model", "{model}", "--data", "{path}"],
        ["validate-report", "{path}"],
    ], ids=["analyze-model", "train-data", "analyze-data", "validate-report"])
    @pytest.mark.parametrize("kind,reason", [
        ("missing", "No such file or directory"), ("directory", "Is a directory")])
    def test_input_that_cannot_be_read_names_its_path_exit_2(self, tmp_path, model, capsys,
                                                             argv, kind, reason):
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        argv = [a.format(path=path, tmp=tmp_path, model=model) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
        assert not (tmp_path / "m.json").exists()


class Built(Exception):
    """Carries the spec a command would run."""


@pytest.fixture
def built_spec(monkeypatch):
    """Runs ``main(argv)`` up to the library call and returns the spec it
    would run."""
    def capture(spec):
        raise Built(spec)

    monkeypatch.setattr(cli, "run_experiment", capture)
    monkeypatch.setattr(cli, "random_nonsingular_sweep", capture)

    def build(argv):
        with pytest.raises(Built) as built:
            main(argv)
        return built.value.args[0]
    return build


class TestSpecsFromFlags:
    @pytest.mark.parametrize("fig", ["3a", "3b"])
    def test_reproduce_runs_the_preset(self, built_spec, fig):
        spec = built_spec(["reproduce", "--paper-fig", fig, "--seeds", "3"])
        assert spec.to_dict() == analysis.reproduction_spec(fig, (0, 1, 2)).to_dict()

    def test_bare_sweep_runs_the_default_spec(self, built_spec):
        spec = built_spec(["sweep-nonsingular"])
        assert spec.to_dict() == analysis.NonSingularSweepSpec().to_dict()

    @pytest.mark.parametrize("flag,field,value", [
        ("--count=4", "count", 4),
        ("--depths=1,2", "depths", (1, 2)),
        ("--levels-per-net=2", "levels_per_net", 2),
        ("--window=-3,3,-2,2", "window", Window(np.array([-3.0, -2.0]),
                                                np.array([3.0, 2.0]))),
        ("--resolution=61", "resolution", 61),
        ("--seed=5", "seed", 5),
        ("--delta=0.01", "delta", 0.01),
        ("--activation=one_to_one_relu:3", "activation", one_to_one_relu(3)),
    ])
    def test_each_sweep_flag_sets_its_own_field(self, built_spec, flag, field, value):
        spec = built_spec(["sweep-nonsingular", flag])
        expected = dataclasses.replace(analysis.NonSingularSweepSpec(), **{field: value})
        assert spec.to_dict() == expected.to_dict()


class TestValidateReportCommand:
    def test_tampered_verdict_detected(self, tmp_path):
        rp = tmp_path / "r.json"
        assert main(["sweep-nonsingular", "--count", "1", "--levels-per-net", "1",
                     "--resolution", "41", "--report", str(rp),
                     "--deterministic"]) == 0
        report = load_report(rp)
        report["verdicts"]["sweep-nonsingular"]["bounded_components"] = 5
        rp.write_text(json.dumps(report))
        assert main(["validate-report", str(rp)]) == 1

    @pytest.mark.parametrize("content,message", [
        ([1, 2], "a report is a JSON object"),
        ({"schema_version": 1}, "missing key 'kind'"),
        # an analyze report without the outcome that holds its network
        ({"schema_version": 1, "kind": "analyze", "outcomes": [],
          "config": {"model": "m.json", "window": {"lo": [-1, -1], "hi": [1, 1]},
                     "resolution": 5, "levels": [0.5], "deterministic": True},
          "timings": {"wall_seconds": 0.0, "deterministic": True}},
         "malformed report: list index out of range"),
        ({"schema_version": 2}, "unsupported schema_version 2"),
        ({"schema_version": 1, "kind": "bogus", "outcomes": [],
          "config": {"deterministic": True}, "timings": {"wall_seconds": 0.0}},
         "unknown report kind 'bogus'"),
        # text that is not JSON: the error names the file
        ("not json\n", "r.json: Expecting value: line 1 column 1 (char 0)"),
    ])
    def test_malformed_report_exit_2(self, tmp_path, capsys, content, message):
        rp = tmp_path / "r.json"
        rp.write_text(content if isinstance(content, str) else json.dumps(content))
        assert main(["validate-report", str(rp)]) == 2
        assert message in capsys.readouterr().err

    def test_sweep_spec_without_a_member_exit_2(self, tmp_path, capsys):
        rp = tmp_path / "r.json"
        assert main(["sweep-nonsingular", "--count", "1", "--levels-per-net", "1",
                     "--resolution", "41", "--report", str(rp),
                     "--deterministic"]) == 0
        report = load_report(rp)
        del report["config"]["spec"]["resolution"]
        rp.write_text(json.dumps(report))
        assert main(["validate-report", str(rp)]) == 2
        assert "report is missing key 'resolution'" in capsys.readouterr().err

    def test_outcome_without_bounded_final_exit_1(self, tmp_path, capsys):
        # a derived member that is missing is a mismatch like any other
        rp = tmp_path / "r.json"
        assert main(["sweep-nonsingular", "--count", "1", "--levels-per-net", "1",
                     "--resolution", "41", "--report", str(rp),
                     "--deterministic"]) == 0
        report = load_report(rp)
        bounded = report["outcomes"][0].pop("bounded_final")
        rp.write_text(json.dumps(report))
        assert main(["validate-report", str(rp)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"outcomes[0].bounded_final is absent, recomputed {bounded}"]

    def test_intact_report_validates(self, tmp_path):
        rp = tmp_path / "r.json"
        assert main(["sweep-nonsingular", "--count", "1", "--levels-per-net", "1",
                     "--resolution", "41", "--report", str(rp),
                     "--deterministic"]) == 0
        assert main(["validate-report", str(rp)]) == 0

    def test_the_file_layout_does_not_matter(self, tmp_path, capsys):
        rp = tmp_path / "r.json"
        assert main(["sweep-nonsingular", "--count", "1", "--levels-per-net", "1",
                     "--resolution", "41", "--report", str(rp),
                     "--deterministic"]) == 0
        report = load_report(rp)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(report, indent=2))
        capsys.readouterr()
        assert main(["validate-report", str(pretty)]) == 0
        assert capsys.readouterr().err == ""

        report["outcomes"][0]["bounded_final"] = 5
        report["verdicts"]["sweep-nonsingular"]["bounded_components"] = 5
        lines = {}
        for name, text in [("compact", dumps_report(report)),
                           ("pretty", json.dumps(report, indent=2))]:
            (tmp_path / name).write_text(text)
            assert main(["validate-report", str(tmp_path / name)]) == 1
            lines[name] = capsys.readouterr().err.splitlines()
        assert len(lines["compact"]) == 2 and lines["pretty"] == lines["compact"]


@pytest.fixture(scope="module")
def wide_report(tmp_path_factory):
    """A one-seed 3b report whose decision level holds a bounded loop."""
    path = tmp_path_factory.mktemp("wide") / "r.json"
    assert main(["reproduce", "--paper-fig", "3b", "--seeds", "1", "--report", str(path),
                 "--deterministic"]) == 0
    level = load_report(path)["outcomes"][0]["levels"][0]
    assert level["bounded_final"] == 1 and level["final_classifications"].count("bounded") == 1
    return path


def relabel_as_touching(report):
    """Rewrite the bounded loop as boundary-touching in both classification
    lists, and the level's counts to wrong values, leaving the outcome's
    sums as they were."""
    level = report["outcomes"][0]["levels"][0]
    level["final_classifications"] = ["boundary_touching"] * len(level["final_classifications"])
    for comp in level["report"]["components"]:
        comp["classification"] = "boundary_touching"
    level["bounded_final"], level["boundary_final"] = 0, 99


def drop_final_classification(report):
    report["outcomes"][0]["levels"][0]["final_classifications"].pop()


def inflate_outcome_count(report):
    report["outcomes"][0]["boundary_final"] += 1


def zero_origin_loop(report):
    report["outcomes"][0]["levels"][0]["bounded_enclosing_origin"] = 0


def set_entry_level(report):
    report["outcomes"][0]["levels"][0]["level"] = 123.0


def flip_loop_with_its_counts(report):
    """Relabel the bounded loop as boundary-touching with every count to match."""
    relabel_as_touching(report)
    outcome = report["outcomes"][0]
    level = outcome["levels"][0]
    n = len(level["final_classifications"])
    level["bounded_final"] = outcome["bounded_final"] = 0
    level["boundary_final"] = outcome["boundary_final"] = n


class TestValidateReportCounts:
    """validate-report recomputes every stored classification and count from
    the chains it extracts again from the stored network."""

    def test_intact_3b_report_validates(self, wide_report, capsys):
        assert main(["validate-report", str(wide_report)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("tamper,messages", [
        (relabel_as_touching, ["outcomes[0].levels[0].boundary_final is 99, recomputed 0",
                               "outcomes[0].levels[0].bounded_final is 0, recomputed 1",
                               "outcomes[0].levels[0].final_classifications[0] is "
                               "'boundary_touching', recomputed 'bounded'",
                               "outcomes[0].levels[0].report.components[0].classification is "
                               "'boundary_touching', recomputed 'bounded'"]),
        (drop_final_classification, ["outcomes[0].levels[0].final_classifications[0] is "
                                     "absent, recomputed 'bounded'"]),
        (inflate_outcome_count, ["outcomes[0].boundary_final is 1, recomputed 0"]),
        (set_entry_level, ["outcomes[0].levels[0].level is 123.0, recomputed 0.5"]),
    ], ids=["relabelled-loop", "dropped-classification", "outcome-sum", "entry-level"])
    def test_tampered_counts_exit_1(self, wide_report, tmp_path, capsys, tamper, messages):
        report = load_report(wide_report)
        tamper(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["validate-report", str(path)]) == 1
        # one line per contradicted count, and none about the verdicts, which
        # still match
        assert capsys.readouterr().err.splitlines() == messages

    @pytest.mark.parametrize("member,value", [
        ("final_classifications[0]", "boundary_touching"),
        ("bounded_final", 0),
        ("boundary_final", 1),
        ("bounded_enclosing_origin", 0),
        ("report.boundary_tol", 0.0),
        ("report.components[0].classification", "boundary_touching"),
    ])
    def test_each_derived_member_is_rederived(self, wide_report, tmp_path, capsys, member,
                                              value):
        report = load_report(wide_report)
        target = report["outcomes"][0]["levels"][0]
        *parents, key = [int(part) if part.isdigit() else part
                         for part in member.replace("[0]", ".0").split(".")]
        for part in parents:
            target = target[part]
        target[key] = value
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["validate-report", str(path)]) == 1
        assert (f"outcomes[0].levels[0].{member} is {value!r}, recomputed "
                in capsys.readouterr().err)

    def test_a_failing_report_is_derived_once(self, wide_report, tmp_path, monkeypatch,
                                              capsys):
        report = load_report(wide_report)
        inflate_outcome_count(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        rebuilt = []
        level_entry = analysis.level_entry
        monkeypatch.setattr(analysis, "level_entry",
                            lambda *args: rebuilt.append(args) or level_entry(*args))
        assert main(["validate-report", str(path)]) == 1
        assert len(rebuilt) == len(report["outcomes"][0]["levels"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("tamper,messages", [
        # the verdict recomputed from the tampered count is a member too
        (zero_origin_loop,
         ["outcomes[0].levels[0].bounded_enclosing_origin is 0, recomputed 1",
          "verdicts.reproduce-3b.status is 'FAIL', recomputed 'PASS'",
          "verdicts.reproduce-3b.with_origin_loop is 0, recomputed 1"]),
        # every member derived from the loop's classification disagrees with
        # its chain, and so do the outcome's sums
        (flip_loop_with_its_counts,
         ["outcomes[0].boundary_final is 1, recomputed 0",
          "outcomes[0].bounded_final is 0, recomputed 1",
          "outcomes[0].levels[0].boundary_final is 1, recomputed 0",
          "outcomes[0].levels[0].bounded_final is 0, recomputed 1",
          "outcomes[0].levels[0].final_classifications[0] is 'boundary_touching', "
          "recomputed 'bounded'",
          "outcomes[0].levels[0].report.components[0].classification is "
          "'boundary_touching', recomputed 'bounded'"]),
    ], ids=["zeroed-origin-loop", "flipped-loop-and-counts"])
    def test_tampered_data_under_matching_verdicts_exit_1(self, wide_report, tmp_path, capsys,
                                                          tamper, messages):
        report = load_report(wide_report)
        tamper(report)
        report["verdicts"] = compute_verdicts(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["validate-report", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == messages


@pytest.fixture(scope="module")
def two_seed_wide_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("wide2") / "r.json"
    assert main(["reproduce", "--paper-fig", "3b", "--seeds", "2", "--report", str(path),
                 "--deterministic"]) == 0
    return path


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "r.json"
    assert main(["sweep-nonsingular", "--count", "1", "--levels-per-net", "1",
                 "--resolution", "41", "--report", str(path), "--deterministic"]) == 0
    return path


def halve_accuracy(report):
    report["outcomes"][0]["accuracy"] = 0.5


def unconverged_at_low_loss(report):
    report["outcomes"][0]["final_loss"] = 0.01
    report["outcomes"][0]["converged"] = False


def as_narrow_kind(report):
    """The same seeds filed as a 3a run, whose verdict reads ``converged``."""
    unconverged_at_low_loss(report)
    report["kind"] = "reproduce-3a"


def flip_nonsingular_verdict(report):
    report["outcomes"][0]["nonsingularity"]["verdict"] = False


def negate_determinant(report):
    dets = report["outcomes"][0]["nonsingularity"]["determinants"]
    dets[0] = -dets[0]


def rewrite_seeds(report):
    report["seeds"] = [5]


def rewrite_spec_seeds(report):
    report["config"]["spec"]["seeds"] = [9, 8]


def rewrite_both_seed_lists(report):
    rewrite_seeds(report)
    rewrite_spec_seeds(report)


class TestValidateReportDerivations:
    """validate-report re-derives ``converged`` from the loss and the preset,
    an early stop's ``final_loss`` and every ``accuracy`` from the stored
    network on the seed's regenerated ring data, the kind from the paper
    figure, and a sweep's ``nonsingularity`` from its rerun spec; the
    verdicts follow from the rebuilt outcomes."""

    @pytest.mark.parametrize("report_fixture,tamper,messages", [
        # the seed stopped early, so its loss is that of its stored network
        ("two_seed_wide_report", unconverged_at_low_loss,
         ["outcomes[0].converged is False, recomputed True",
          "outcomes[0].final_loss is 0.01, recomputed 0.04991314624188036"]),
        ("two_seed_wide_report", as_narrow_kind,
         ["kind is 'reproduce-3a', recomputed 'reproduce-3b'",
          "outcomes[0].converged is False, recomputed True",
          "outcomes[0].final_loss is 0.01, recomputed 0.04991314624188036",
          "verdicts.reproduce-3a is {",
          "verdicts.reproduce-3b is absent, recomputed {"]),
        ("two_seed_wide_report", halve_accuracy,
         ["outcomes[0].accuracy is 0.5, recomputed ",
          "verdicts.reproduce-3b.accurate is 1, recomputed 2",
          "verdicts.reproduce-3b.required_with_loop is 1, recomputed 2",
          "verdicts.reproduce-3b.status is 'FAIL', recomputed 'PASS'",
          "verdicts.reproduce-3b.with_origin_loop is 1, recomputed 2"]),
        ("sweep_report", flip_nonsingular_verdict,
         ["outcomes[0].nonsingularity.verdict is False, recomputed True"]),
        ("sweep_report", negate_determinant,
         ["outcomes[0].nonsingularity.determinants[0] is -"]),
    ], ids=["converged", "converged-narrow", "accuracy", "nonsingular-verdict",
            "determinant-sign"])
    def test_tampered_derivation_exit_1(self, request, tmp_path, capsys, report_fixture,
                                        tamper, messages):
        report = load_report(request.getfixturevalue(report_fixture))
        tamper(report)
        report["verdicts"] = compute_verdicts(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["validate-report", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(messages)
        for line, message in zip(err, messages):
            assert line.startswith(message)

    @pytest.mark.parametrize("report_fixture,tamper,messages", [
        ("two_seed_wide_report", rewrite_seeds,
         ["seeds[0] is 5, recomputed 0", "seeds[1] is absent, recomputed 1"]),
        ("two_seed_wide_report", rewrite_spec_seeds,
         ["config.spec.seeds[0] is 9, recomputed 0", "config.spec.seeds[1] is 8, recomputed 1"]),
        ("two_seed_wide_report", rewrite_both_seed_lists,
         ["config.spec.seeds[0] is 9, recomputed 0", "config.spec.seeds[1] is 8, recomputed 1",
          "seeds[0] is 5, recomputed 0", "seeds[1] is absent, recomputed 1"]),
        ("sweep_report", rewrite_seeds, ["seeds[0] is 5, recomputed 0"]),
    ], ids=["seeds", "spec-seeds", "both", "sweep-seeds"])
    def test_tampered_seed_lists_exit_1(self, request, tmp_path, capsys, report_fixture,
                                        tamper, messages):
        report = load_report(request.getfixturevalue(report_fixture))
        tamper(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["validate-report", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == messages


@pytest.fixture(scope="module")
def narrow_report(tmp_path_factory):
    """A two-seed 3a report: seed 0 neither converges nor has a component,
    seed 1 converges with one boundary-touching component."""
    path = tmp_path_factory.mktemp("narrow") / "r.json"
    assert main(["reproduce", "--paper-fig", "3a", "--seeds", "2", "--report", str(path),
                 "--deterministic"]) == 0
    assert [(o["converged"], o["bounded_final"], o["boundary_final"])
            for o in load_report(path)["outcomes"]] == [(False, 0, 0), (True, 0, 1)]
    return path


# each tamper edits a report in place and returns the lines validate-report
# prints for it


def add_top_level_member(report):
    report["extra"] = 1
    return ["extra is 1, recomputed absent"]


def add_outcome_member(report):
    report["outcomes"][0]["extra"] = 1
    return ["outcomes[0].extra is 1, recomputed absent"]


def add_entry_member(report):
    report["outcomes"][0]["levels"][0]["extra"] = 1
    return ["outcomes[0].levels[0].extra is 1, recomputed absent"]


def readd_entry_counts(report):
    counts = {"bounded": 1, "boundary_touching": 0}
    report["outcomes"][0]["levels"][0]["report"]["counts"] = counts
    return [f"outcomes[0].levels[0].report.counts is {counts!r}, recomputed absent"]


def delete_nonsingularity(report):
    stored = report["outcomes"][0].pop("nonsingularity")
    return [f"outcomes[0].nonsingularity is absent, recomputed {stored!r}"]


def mark_sweep_net_converged(report):
    report["outcomes"][0]["converged"] = True
    return ["outcomes[0].converged is True, recomputed None"]


def set_sweep_net_loss(report):
    report["outcomes"][0]["final_loss"] = 0.3
    return ["outcomes[0].final_loss is 0.3, recomputed None"]


def stop_at_step_one(report):
    report["outcomes"][0]["steps_run"] = 1
    return ["outcomes[0].steps_run is 1, recomputed 20000"]


def run_past_the_spec(report):
    report["outcomes"][0]["steps_run"] = 6000
    return ["outcomes[0].steps_run is 6000, recomputed 5000"]


def lower_early_stop_loss(report):
    loss = report["outcomes"][0]["final_loss"]
    report["outcomes"][0]["final_loss"] = 1e-4
    return [f"outcomes[0].final_loss is 0.0001, recomputed {loss!r}"]


def raise_full_run_loss(report):
    """A 3a seed ran every step; its loss is still that of its stored network."""
    loss = report["outcomes"][0]["final_loss"]
    report["outcomes"][0]["final_loss"] = loss + 0.01
    return [f"outcomes[0].final_loss is {loss + 0.01!r}, recomputed {loss!r}"]


def widen_arch(report):
    report["config"]["spec"]["arch"][1] = 4
    return ["config.spec.arch[1] is 4, recomputed 3"]


def relabel_regime(report):
    report["config"]["spec"]["regime"] = "skinny"
    return ["config.spec.regime is 'skinny', recomputed 'wide'"]


def shorten_training(report):
    report["config"]["spec"]["train"]["steps"] = 10
    return ["config.spec.train.steps is 10, recomputed 5000"]


def set_wall_seconds(report):
    report["timings"]["wall_seconds"] = 5.0
    return ["timings.wall_seconds is 5.0, recomputed 0.0"]


def clear_deterministic_timing(report):
    report["timings"]["deterministic"] = False
    return ["timings.deterministic is False, recomputed True"]


def raise_convergence_loss(report):
    """Raise the gate's threshold, with every seed converged and the verdicts
    recomputed to match."""
    report["config"]["spec"]["convergence_loss"] = 10.0
    for o in report["outcomes"]:
        o["converged"] = True
    report["verdicts"] = compute_verdicts(report)
    return ["config.spec.convergence_loss is 10.0, recomputed 0.35",
            "outcomes[0].converged is True, recomputed False",
            "verdicts.reproduce-3a.converged is 2, recomputed 1",
            "verdicts.reproduce-3a.converged_without_component is 1, recomputed 0",
            "verdicts.reproduce-3a.status is 'FAIL', recomputed 'PASS'"]


def widen_windows(report):
    """Rebuild every entry on [-100, 100]^2, with the sums and verdicts to
    match: seed 1's frame-touching chain becomes bounded."""
    wide = Window(np.array([-100.0, -100.0]), np.array([100.0, 100.0]))
    lines = []
    for i, o in enumerate(report["outcomes"]):
        stored = o["levels"][0]["report"]
        entry = level_entry(o["levels"][0]["level"], wide, stored["resolution"],
                            [c["polylines"][0] for c in stored["components"]])
        o["levels"][0] = entry
        o["bounded_final"], o["boundary_final"] = entry["bounded_final"], entry["boundary_final"]
        lines.append(f"outcomes[{i}].levels[0].report.boundary_tol is "
                     f"{entry['report']['boundary_tol']!r}, recomputed {stored['boundary_tol']!r}")
        lines += [f"outcomes[{i}].levels[0].report.window.{side}[{k}] is {bound!r}, "
                  f"recomputed {stored['window'][side][k]!r}"
                  for side, bound in (("hi", 100.0), ("lo", -100.0)) for k in (0, 1)]
    report["verdicts"] = compute_verdicts(report)
    return lines + [
        "outcomes[1].boundary_final is 0, recomputed 1",
        "outcomes[1].bounded_final is 1, recomputed 0",
        "outcomes[1].levels[0].boundary_final is 0, recomputed 1",
        "outcomes[1].levels[0].bounded_enclosing_origin is 1, recomputed 0",
        "outcomes[1].levels[0].bounded_final is 1, recomputed 0",
        "outcomes[1].levels[0].final_classifications[0] is 'bounded', "
        "recomputed 'boundary_touching'",
        "outcomes[1].levels[0].report.components[0].classification is 'bounded', "
        "recomputed 'boundary_touching'",
        "verdicts.reproduce-3a.bounded_components_among_converged is 1, recomputed 0",
        "verdicts.reproduce-3a.status is 'FAIL', recomputed 'PASS'"]


@pytest.fixture(scope="module")
def three_net_sweep_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep3") / "r.json"
    assert main(["sweep-nonsingular", "--count", "3", "--resolution", "41",
                 "--report", str(path), "--deterministic"]) == 0
    return path


@pytest.fixture(scope="module")
def analyze_data_report(tmp_path_factory, model, dataset):
    path = tmp_path_factory.mktemp("analyze") / "r.json"
    assert main(["analyze", "--model", str(model), "--data", str(dataset),
                 "--resolution", "41", "--report", str(path), "--deterministic"]) == 0
    return path


def resum(report, outcome):
    """Recompute an outcome's level sums and the report's verdicts to match."""
    for key in ("bounded_final", "boundary_final"):
        outcome[key] = sum(lv[key] for lv in outcome["levels"])
    report["verdicts"] = compute_verdicts(report)


def move_chain_vertex(report):
    chain = report["outcomes"][0]["levels"][0]["report"]["components"][0]["polylines"][0]
    x = chain[3][0]
    chain[3][0] = x + 1e-3
    resum(report, report["outcomes"][0])
    return [f"outcomes[0].levels[0].report.components[0].polylines[0][3][0] is "
            f"{x + 1e-3!r}, recomputed {x!r}"]


def nudge_converged_head_bias(report):
    """Move converged seed 1's head bias by 1e-6: its stored loss and chain no
    longer come from its network, which is raw, so both are recomputed from it."""
    outcome = report["outcomes"][1]
    outcome["network"]["layers"][-1]["bias"][0] += 1e-6
    net = network_from_dict(outcome["network"])
    spec = analysis.reproduction_spec("3a", (1,))
    data = spec.dataset(1)
    loss = training.loss_and_grad(net, data.points, data.labels, spec.train.loss)[0]
    assert loss != outcome["final_loss"]
    [comp] = extract_components(
        sample_grid(network_scalar_fn(net), analysis.auto_window(data), (201, 201)), 0.5)
    stored = outcome["levels"][0]["report"]["components"][0]["polylines"][0]
    assert len(stored) == len(comp.chain)
    return [f"outcomes[1].final_loss is {outcome['final_loss']!r}, recomputed {loss!r}"] + [
        f"outcomes[1].levels[0].report.components[0].polylines[0][{i}][{k}] is {a!r}, "
        f"recomputed {b!r}" for i, (p, q) in enumerate(zip(stored, comp.chain.tolist()))
        for k, (a, b) in enumerate(zip(p, q)) if a != b]


def shift_sweep_head_bias(report):
    """The determinants of a sweep net do not read its biases."""
    bias = report["outcomes"][1]["network"]["layers"][2]["bias"]
    b = bias[0]
    bias[0] = b + 0.5
    return [f"outcomes[1].network.layers[2].bias[0] is {b + 0.5!r}, recomputed {b!r}"]


def drop_sweep_level(report):
    outcome = report["outcomes"][0]
    entry = outcome["levels"].pop()
    resum(report, outcome)
    assert entry["boundary_final"] == 1
    touching = outcome["boundary_final"]
    return [f"outcomes[0].levels[4] is absent, recomputed {entry!r}",
            f"outcomes[0].boundary_final is {touching}, recomputed {touching + 1}"]


def move_sweep_level(report):
    """Replace a net's first entry with its entry at level 0.123, which the
    net does not reach on the window, sums and verdicts to match."""
    spec, outcome = report["config"]["spec"], report["outcomes"][0]
    field = sample_grid(network_scalar_fn(network_from_dict(outcome["network"])),
                        Window(**spec["window"]), (spec["resolution"],) * 2)
    stored, touching = outcome["levels"][0], outcome["boundary_final"]
    outcome["levels"][0] = entry = json.loads(json.dumps(analysis.analyze_level(0.123, field)))
    resum(report, outcome)
    [component] = stored["report"]["components"]
    assert entry["report"]["components"] == []
    return [f"outcomes[0].levels[0].level is 0.123, recomputed {stored['level']!r}",
            f"outcomes[0].levels[0].report.level is 0.123, recomputed {stored['level']!r}",
            "outcomes[0].levels[0].final_classifications[0] is absent, "
            "recomputed 'boundary_touching'",
            "outcomes[0].levels[0].boundary_final is 0, recomputed 1",
            f"outcomes[0].levels[0].report.components[0] is absent, recomputed {component!r}",
            f"outcomes[0].boundary_final is {touching - 1}, recomputed {touching}"]


def inflate_sweep_count(report):
    report["config"]["spec"]["count"] = 10 ** 9
    return ["config.spec.count is 1000000000, recomputed 3"]


def drop_sweep_sharpness(report):
    """A sweep spec's activation decodes as a model's does: an absent
    sharpness is None, which the rebuilt spec writes out."""
    del report["config"]["spec"]["activation"]["sharpness"]
    return ["config.spec.activation.sharpness is absent, recomputed None"]


def set_analyze_accuracy(report):
    report["outcomes"][0]["accuracy"] = 0.01
    return ["outcomes[0].accuracy is 0.01, recomputed None"]


class TestEveryMemberIsRebuilt:
    """validate-report rebuilds the whole report from its raw members, so an
    edit to any other member, an extra member or a missing one exits 1 with
    one line per member that differs."""

    @pytest.mark.parametrize("report_fixture,tamper", [
        ("two_seed_wide_report", add_top_level_member),
        ("sweep_report", add_outcome_member),
        ("two_seed_wide_report", add_entry_member),
        ("two_seed_wide_report", readd_entry_counts),
        ("sweep_report", delete_nonsingularity),
        ("sweep_report", mark_sweep_net_converged),
        ("sweep_report", set_sweep_net_loss),
        ("narrow_report", stop_at_step_one),
        ("two_seed_wide_report", run_past_the_spec),
        ("two_seed_wide_report", lower_early_stop_loss),
        ("narrow_report", raise_full_run_loss),
        ("two_seed_wide_report", widen_arch),
        ("two_seed_wide_report", relabel_regime),
        ("two_seed_wide_report", shorten_training),
        ("two_seed_wide_report", set_wall_seconds),
        ("two_seed_wide_report", clear_deterministic_timing),
        ("narrow_report", raise_convergence_loss),
        ("narrow_report", widen_windows),
        ("two_seed_wide_report", move_chain_vertex),
        ("narrow_report", nudge_converged_head_bias),
        ("three_net_sweep_report", shift_sweep_head_bias),
        ("three_net_sweep_report", drop_sweep_level),
        ("three_net_sweep_report", move_sweep_level),
        ("three_net_sweep_report", inflate_sweep_count),
        ("three_net_sweep_report", drop_sweep_sharpness),
        ("analyze_data_report", set_analyze_accuracy),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__.replace("_", "-"))
    def test_tampered_report_exit_1(self, request, tmp_path, capsys, report_fixture, tamper):
        report = load_report(request.getfixturevalue(report_fixture))
        expected = tamper(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["validate-report", str(path)]) == 1
        assert sorted(capsys.readouterr().err.splitlines()) == sorted(expected)


class TestEnvironment:
    @pytest.mark.parametrize("value", ["abc", "0", "-4"])
    def test_bad_thread_count_exit_2(self, monkeypatch, capsys, value):
        monkeypatch.setenv(analysis.THREADS_ENV, value)
        assert main(["sweep-nonsingular", "--count", "2", "--levels-per-net", "1",
                     "--resolution", "21"]) == 2
        err = capsys.readouterr().err
        assert "LEVELSET_PROBE_THREADS must be a positive integer" in err
        assert repr(value) in err


def test_module_entry_point_runs_from_a_checkout(tmp_path):
    rp = tmp_path / "r.json"
    rp.write_text("[1, 2]")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "leveltopo", "validate-report", str(rp)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 2
    assert "a report is a JSON object" in done.stderr


def test_import_loads_no_process_pool(tmp_path):
    """Worker processes start only inside ``parallel_map``, so importing the
    package, even its command line, loads no process-pool machinery."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, leveltopo, leveltopo.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_two_worker_sweep_report_validates(tmp_path):
    """The report of a sweep whose outcomes were encoded in worker processes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), analysis.THREADS_ENV: "2"}
    for argv in (["sweep-nonsingular", "--count", "3", "--report", "r.json"],
                 ["validate-report", "r.json"]):
        done = subprocess.run([sys.executable, "-m", "leveltopo", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
    assert done.stdout == "verdicts check out: r.json\n"


def test_readme_commands_parse():
    """Every ``leveltopo`` command in README's code blocks, with ``\\``
    continuations joined, parses; none is run."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["leveltopo"]:
                commands.append(argv[1:])
    assert commands
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: leveltopo {shlex.join(argv)}")
