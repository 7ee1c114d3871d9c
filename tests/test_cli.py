import json

import numpy as np
import pytest

from obsnode.cli import main, read_treatment_csv
from obsnode.evaluate import model_predictor
from obsnode.model import load_model
from obsnode.odeint import IntegrationConfig
from obsnode.simulate import read_dataset
from obsnode.train import stack_units


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny end-to-end run: dataset, one-epoch model, evaluation grid."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    run = root / "run"
    out = root / "eval"
    sim = write_json(root / "sim.json", {
        "format_version": 1, "kind": "cancer", "output_dir": str(ds),
        "params": {"n_patients": 9, "n_cycles": 2, "dt": 0.5,
                   "obs_every": 3, "seed": 1}})
    trn = write_json(root / "train.json", {
        "format_version": 1, "dataset_dir": str(ds), "run_dir": str(run),
        "model": {"d_y": 2, "m": 2, "d_a": 2, "phi_hidden_dim": 8,
                  "phi_layers": 1, "encoder_hidden_dim": 8},
        "train": {"epochs": 1, "batch_size": 4,
                  "decision_time_grid": [30.0], "t_f": 60.0, "seed": 0,
                  "int_step": 3.0}})
    evl = write_json(root / "eval.json", {
        "format_version": 1, "dataset_dir": str(ds),
        "checkpoint": str(run / "checkpoint.json"), "output_dir": str(out),
        "t_c_grid": [30.0], "horizons": [15.0, 30.0], "heatmap": True})
    assert main(["simulate", "--config", sim]) == 0
    assert main(["train", "--config", trn]) == 0
    assert main(["evaluate", "--config", evl]) == 0
    return {"root": root, "ds": ds, "run": run, "out": out,
            "sim": sim, "train": trn, "eval": evl}


class TestExitCodes:
    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert str(tmp_path / "nope.json") in capsys.readouterr().err

    def test_missing_dataset_path_named_in_message(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "t.json", {
            "format_version": 1, "dataset_dir": str(tmp_path / "absent"),
            "run_dir": str(tmp_path / "r"),
            "model": {"d_y": 2, "m": 2, "d_a": 2},
            "train": {"decision_time_grid": [1.0], "t_f": 2.0}})
        assert main(["train", "--config", cfg]) == 2
        assert str(tmp_path / "absent") in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", {
            "format_version": 1, "kind": "cancer", "output_dir": "x",
            "params": {}, "extra_knob": 1})
        assert main(["simulate", "--config", cfg]) == 2
        assert "extra_knob" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", {
            "format_version": 1, "kind": "cancer",
            "output_dir": str(tmp_path / "d"),
            "params": {"n_patients": 2, "typo_field": 3}})
        assert main(["simulate", "--config", cfg]) == 2

    def test_wrong_format_version(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", {
            "format_version": 99, "kind": "cancer", "output_dir": "x",
            "params": {}})
        assert main(["simulate", "--config", cfg]) == 2

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"format_version": 1,\n  "kind": }')
        assert main(["simulate", "--config", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_invalid_generator_value_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "s.json", {
            "format_version": 1, "kind": "cancer",
            "output_dir": str(tmp_path / "d"),
            "params": {"gamma": 50.0}})
        assert main(["simulate", "--config", cfg]) == 2

    def test_unknown_unit_is_data_error(self, workspace, tmp_path):
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        rc = main(["forecast", "--checkpoint",
                   str(workspace["run"] / "checkpoint.json"),
                   "--dataset", str(workspace["ds"]), "--unit-id", "999",
                   "--treatments", str(t), "--t-c", "30"])
        assert rc == 3

    def test_bad_treatment_header_is_data_error(self, workspace, tmp_path):
        t = tmp_path / "a.csv"
        t.write_text("time,dose\n0.0,0.0\n")
        rc = main(["forecast", "--checkpoint",
                   str(workspace["run"] / "checkpoint.json"),
                   "--dataset", str(workspace["ds"]), "--unit-id", "0",
                   "--treatments", str(t), "--t-c", "30"])
        assert rc == 3

    def test_two_patients_simulate_then_train_on_empty_split(self, tmp_path,
                                                             capsys):
        # two units leave the train split empty: simulate writes the dataset,
        # train rejects it as a data error
        sim = write_json(tmp_path / "s.json", {
            "format_version": 1, "kind": "cancer",
            "output_dir": str(tmp_path / "d"),
            "params": {"n_patients": 2, "n_cycles": 1, "dt": 0.5,
                       "obs_every": 3}})
        assert main(["simulate", "--config", sim]) == 0
        trn = write_json(tmp_path / "t.json", {
            "format_version": 1, "dataset_dir": str(tmp_path / "d"),
            "run_dir": str(tmp_path / "r"),
            "model": {"d_y": 2, "m": 2, "d_a": 2},
            "train": {"decision_time_grid": [3.0], "t_f": 30.0}})
        assert main(["train", "--config", trn]) == 3
        assert "empty split" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["30.0,0.0,0.0\n0.0,1.0,1.0\n",
                                      "0.0,0.0,0.0\n30.0,1.0\n",
                                      "nan,0.0,0.0\n"],
                             ids=["nonincreasing_starts", "short_row",
                                  "nan_start"])
    def test_bad_treatment_rows_are_data_error(self, workspace, tmp_path,
                                               rows, capsys):
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n" + rows)
        rc = main(["forecast", "--checkpoint",
                   str(workspace["run"] / "checkpoint.json"),
                   "--dataset", str(workspace["ds"]), "--unit-id", "0",
                   "--treatments", str(t), "--t-c", "30"])
        assert rc == 3
        assert str(t) in capsys.readouterr().err

    def test_checkpoint_without_tensors_is_data_error(self, workspace,
                                                      tmp_path):
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        del doc["tensors"]
        ck = write_json(tmp_path / "ck.json", doc)
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        rc = main(["forecast", "--checkpoint", ck,
                   "--dataset", str(workspace["ds"]), "--unit-id", "0",
                   "--treatments", str(t), "--t-c", "30"])
        assert rc == 3


class TestDeterminism:
    def test_simulate_rerun_byte_identical(self, workspace, tmp_path, capsys):
        cfg = json.loads((workspace["root"] / "sim.json").read_text())
        cfg["output_dir"] = str(tmp_path / "ds2")
        p = write_json(tmp_path / "sim.json", cfg)
        assert main(["simulate", "--config", p]) == 0
        first = capsys.readouterr().out
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
            assert (tmp_path / "ds2" / name).read_bytes() == \
                (workspace["ds"] / name).read_bytes()
        assert main(["simulate", "--config", workspace["sim"]]) == 0
        assert capsys.readouterr().out == first

    def test_evaluate_rerun_byte_identical(self, workspace, tmp_path):
        cfg = json.loads((workspace["root"] / "eval.json").read_text())
        cfg["output_dir"] = str(tmp_path / "eval2")
        p = write_json(tmp_path / "eval.json", cfg)
        assert main(["evaluate", "--config", p]) == 0
        for name in ("rmse_grid.csv", "rmse_grid_mean.csv",
                     "rmse_component_0.pgm"):
            assert (tmp_path / "eval2" / name).read_bytes() == \
                (workspace["out"] / name).read_bytes()

    def test_train_rerun_reproduces_checkpoint(self, workspace, tmp_path):
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "run2")
        p = write_json(tmp_path / "train.json", cfg)
        assert main(["train", "--config", p]) == 0
        assert (tmp_path / "run2" / "checkpoint.json").read_bytes() == \
            (workspace["run"] / "checkpoint.json").read_bytes()
        assert (tmp_path / "run2" / "metrics.csv").read_bytes() == \
            (workspace["run"] / "metrics.csv").read_bytes()


class TestResume:
    def test_zero_epoch_resume_keeps_weights(self, workspace, tmp_path):
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "resumed")
        cfg["init_checkpoint"] = str(workspace["run"] / "checkpoint.json")
        cfg["train"]["epochs"] = 0
        p = write_json(tmp_path / "resume.json", cfg)
        assert main(["train", "--config", p]) == 0
        a = json.loads((workspace["run"] / "checkpoint.json").read_text())
        b = json.loads((tmp_path / "resumed" / "checkpoint.json").read_text())
        assert a["tensors"] == b["tensors"]


class TestForecast:
    def test_factual_treatments_match_evaluate_predictions(self, workspace,
                                                           tmp_path):
        splits, _ = read_dataset(workspace["ds"])
        unit = splits["test"][0]
        t_c = 30.0
        rows = ["start_time,component_1,component_2"]
        for t, a in zip(unit.times, unit.a):
            rows.append(f"{float(t)!r},{float(a[0])!r},{float(a[1])!r}")
        tf = tmp_path / "factual.csv"
        tf.write_text("\n".join(rows) + "\n")
        out = tmp_path / "pred.csv"
        rc = main(["forecast", "--checkpoint",
                   str(workspace["run"] / "checkpoint.json"),
                   "--dataset", str(workspace["ds"]),
                   "--unit-id", str(unit.unit_id),
                   "--treatments", str(tf), "--t-c", repr(t_c),
                   "--output", str(out)])
        assert rc == 0

        params, mcfg, stats = load_model(workspace["run"] / "checkpoint.json")
        step = float(np.min(np.diff(unit.times))) / 4.0
        predict = model_predictor(params, stats, IntegrationConfig(step_size=step))
        times, y, mask, a = stack_units([unit])
        qts = times[times > t_c + 1e-9]
        ref = predict(times, y, mask, a, t_c, qts)[:, 0, :]

        lines = out.read_text().splitlines()
        assert lines[0] == "time,component_1,component_2"
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(got[:, 0], qts)
        np.testing.assert_array_equal(got[:, 1:], ref)

    def test_treatment_csv_roundtrip(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("start_time,component_1,component_2\n"
                     "0.0,1.5,0.0\n30.0,0.0,2.0\n")
        ctrl = read_treatment_csv(p, 2)
        np.testing.assert_array_equal(ctrl.value_at(10.0), [1.5, 0.0])
        np.testing.assert_array_equal(ctrl.value_at(45.0), [0.0, 2.0])


class TestVerifyIdentification:
    def test_report_passes_and_is_deterministic(self, tmp_path):
        cfg = write_json(tmp_path / "v.json", {
            "format_version": 1, "n_instances": 5, "seed": 0,
            "tolerance": 1e-10, "output": str(tmp_path / "r.json")})
        assert main(["verify-identification", "--config", cfg]) == 0
        first = (tmp_path / "r.json").read_bytes()
        report = json.loads(first)
        assert report["pass"] is True
        assert report["max_deviation"] < 1e-10
        assert report["witness"]["observational_tv"] < 1e-12
        assert report["witness"]["interventional_tv"] >= 0.05
        assert main(["verify-identification", "--config", cfg]) == 0
        assert (tmp_path / "r.json").read_bytes() == first


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--n", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

