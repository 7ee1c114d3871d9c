import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import time
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obsnode
from obsnode import cli
from obsnode import model as model_mod
from obsnode import train as train_mod
from obsnode.cli import main, read_treatment_csv
from obsnode.evaluate import raw_forecasts
from obsnode.identify import MAX_VERIFY_CELLS, QUERY_CELLS
from obsnode.model import ObsNodeConfig, decision_split, load_model
from obsnode.odeint import IntegrationConfig
from obsnode.simulate import (CancerSimConfig, SemiSynthConfig, Trajectory, read_dataset,
                              write_dataset)
from obsnode.train import TrainConfig, stack_units
from support import MANIFEST_DEFECTS, break_manifest, value_at


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


@pytest.fixture(scope="module")
def tiny_dataset(workspace):
    """A 3-patient dataset on the workspace's grid: one unit per split."""
    ds = workspace["root"] / "tiny_ds"
    sim = write_json(workspace["root"] / "tiny_sim.json", {
        "format_version": 1, "kind": "cancer", "output_dir": str(ds),
        "params": {"n_patients": 3, "n_cycles": 2, "dt": 0.5, "obs_every": 3, "seed": 1}})
    assert main(["simulate", "--config", sim]) == 0
    return ds


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
        assert main(["train", "--config", cfg]) == 3
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

    def test_missing_treatment_file_is_data_error(self, workspace, tmp_path):
        rc, _, err = run_main(["forecast", "--checkpoint",
                               str(workspace["run"] / "checkpoint.json"),
                               "--dataset", str(workspace["ds"]), "--unit-id", "0",
                               "--treatments", str(tmp_path / "absent.csv"), "--t-c", "30"])
        assert rc == 3 and str(tmp_path / "absent.csv") in err

    @pytest.mark.parametrize("command,key", [
        ("train", "dataset_dir"), ("train", "init_checkpoint"), ("evaluate", "dataset_dir"),
        ("evaluate", "checkpoint"), ("forecast", "--dataset"), ("forecast", "--checkpoint")])
    def test_every_missing_input_file_is_data_error(self, workspace, tmp_path, command, key):
        # only a missing config file is a usage error; a missing dataset,
        # checkpoint or treatment file is a data error naming its path
        absent = str(tmp_path / "absent")
        if command == "forecast":
            t = tmp_path / "a.csv"
            t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
            argv = {"--checkpoint": str(workspace["run"] / "checkpoint.json"),
                    "--dataset": str(workspace["ds"]), "--unit-id": "0",
                    "--treatments": str(t), "--t-c": "30", key: absent}
            rc, out, err = run_main(["forecast", *[v for kv in argv.items() for v in kv]])
        else:
            cfg = json.loads(Path(workspace[{"train": "train", "evaluate": "eval"}[command]]).read_text())
            cfg.update({key: absent, "run_dir" if command == "train" else "output_dir":
                        str(tmp_path / "out")})
            rc, err = run_config(command, cfg, tmp_path / "c.json")
            out = ""
        assert rc == 3 and absent in err and err.startswith("data error: ") and not out
        assert not (tmp_path / "out").exists()

    def test_missing_required_key_is_config_error(self, workspace, tmp_path):
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        del cfg["run_dir"]
        rc, err = run_config("train", cfg, tmp_path / "t.json")
        assert rc == 2 and "missing keys ['run_dir']" in err

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
                                      "nan,0.0,0.0\n", "0.0,0.0,0.0\n30.0,nan,1.0\n"],
                             ids=["nonincreasing_starts", "short_row",
                                  "nan_start", "nan_value"])
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

    def test_checkpoint_with_infinite_weight_is_data_error(self, workspace,
                                                          tmp_path, capsys):
        # the fused model nodes check their inputs and outputs, not every
        # weight, so a non-finite weight is rejected where it is loaded
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        next(t for t in doc["tensors"] if t["name"] == "enc.Wr")["values"][0] = \
            float("inf")
        ck = write_json(tmp_path / "ck.json", doc)
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        rc = main(["forecast", "--checkpoint", ck,
                   "--dataset", str(workspace["ds"]), "--unit-id", "0",
                   "--treatments", str(t), "--t-c", "30"])
        assert rc == 3
        assert "enc.Wr" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("phi_layers", 10**30),
                                           ("encoder_hidden_dim", 10**12)])
    def test_huge_checkpoint_dims_are_data_error(self, workspace, tmp_path,
                                                 key, value):
        # the size the dims imply is bounded before any parameter is built
        # or any stored tensor is compared with them
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        doc["metadata"]["config"][key] = value
        ck = write_json(tmp_path / "ck.json", doc)
        evl = json.loads((workspace["root"] / "eval.json").read_text())
        evl.update(checkpoint=ck, output_dir=str(tmp_path / "eval"))
        rc, _, err = run_main(["evaluate", "--config",
                               write_json(tmp_path / "eval.json", evl)])
        assert rc == 3 and "Traceback" not in err
        assert ("bad metadata: d_y, m, d_a, phi_hidden_dim, phi_layers and encoder_hidden_dim "
                "give more than MAX_PARAMS=") in err

    def test_zero_epoch_train_on_mismatched_dims_is_data_error(self, workspace,
                                                              tmp_path):
        # with no epoch no batch reaches encode, so train() itself compares
        # the dataset with the model before it writes a checkpoint
        sim = write_json(tmp_path / "s.json", {
            "format_version": 1, "kind": "semi_synthetic",
            "output_dir": str(tmp_path / "ds"),
            "params": {"n_patients": 9, "horizon_hours": 60.0, "d_y": 3}})
        assert main(["simulate", "--config", sim]) == 0
        (rc, _, err), _, _ = train_evaluate_forecast(workspace, tmp_path,
                                                     tmp_path / "ds", 0, epochs=0)
        assert rc == 3
        assert "record (d_y, d_a) (3, 2) != model (2, 2)" in err
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.parametrize("defect", ["truncated_record", "bad_manifest",
                                        "record_missing_key"])
    def test_malformed_dataset_is_data_error(self, workspace, tmp_path,
                                             defect, capsys):
        ds = tmp_path / "ds"
        ds.mkdir()
        for f in workspace["ds"].iterdir():
            (ds / f.name).write_bytes(f.read_bytes())
        if defect == "truncated_record":
            with open(ds / "test.jsonl", "a") as fh:
                fh.write('{"unit_id": 99, "times": [0')
        elif defect == "bad_manifest":
            (ds / "manifest.json").write_text('{"format_version": 1, "spl')
        else:
            lines = (ds / "val.jsonl").read_text().splitlines()
            rec = json.loads(lines[0])
            del rec["mask"]
            (ds / "val.jsonl").write_text("\n".join([json.dumps(rec)] + lines[1:]))
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        ck = str(workspace["run"] / "checkpoint.json")
        cfg = json.loads((workspace["root"] / "eval.json").read_text())
        cfg.update(dataset_dir=str(ds), output_dir=str(tmp_path / "out"))
        ev = write_json(tmp_path / "eval.json", cfg)
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg.update(dataset_dir=str(ds), run_dir=str(tmp_path / "run"))
        tr = write_json(tmp_path / "train.json", cfg)
        for argv in (["forecast", "--checkpoint", ck, "--dataset", str(ds),
                      "--unit-id", "0", "--treatments", str(t), "--t-c", "30"],
                     ["evaluate", "--config", ev], ["train", "--config", tr]):
            assert main(argv) == 3
            assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [{"horizons": []}, {"t_c_grid": []},
                                        {"horizons": [15.0, -1.0]},
                                        {"t_c_grid": ["30"]},
                                        {"horizons": [10 ** 400]},
                                        {"horizons": [15.0, 30.0, 15.0]},
                                        {"t_c_grid": [30.0, 30.0]}],
                             ids=["no_horizons", "no_t_c", "negative_horizon",
                                  "string_t_c", "huge_horizon", "repeated_horizon",
                                  "repeated_t_c"])
    def test_bad_evaluate_grid_is_config_error(self, workspace, tmp_path,
                                               change, capsys, monkeypatch):
        # rejected before any forecast runs
        monkeypatch.setattr("obsnode.cli.rmse_grid", None)
        cfg = json.loads((workspace["root"] / "eval.json").read_text())
        cfg.update(change, output_dir=str(tmp_path / "out"))
        assert main(["evaluate", "--config",
                     write_json(tmp_path / "eval.json", cfg)]) == 2
        assert list(change)[0] in capsys.readouterr().err

    def test_t_c_grid_past_record_end_is_config_error(self, workspace,
                                                      tmp_path, capsys):
        cfg = json.loads((workspace["root"] / "eval.json").read_text())
        cfg.update(t_c_grid=[300.0], output_dir=str(tmp_path / "out"))
        assert main(["evaluate", "--config",
                     write_json(tmp_path / "eval.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert "records span [0.0, " in err
        assert not (tmp_path / "out").exists()

    def test_evaluate_on_empty_split_is_data_error(self, workspace, tmp_path,
                                                   capsys):
        sim = write_json(tmp_path / "s.json", {
            "format_version": 1, "kind": "cancer",
            "output_dir": str(tmp_path / "d"),
            "params": {"n_patients": 2, "n_cycles": 1, "dt": 0.5,
                       "obs_every": 3}})
        assert main(["simulate", "--config", sim]) == 0
        cfg = json.loads((workspace["root"] / "eval.json").read_text())
        cfg.update(dataset_dir=str(tmp_path / "d"), split="val",
                   output_dir=str(tmp_path / "out"))
        assert main(["evaluate", "--config",
                     write_json(tmp_path / "eval.json", cfg)]) == 3
        assert "empty split" in capsys.readouterr().err


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

    def test_a_warm_start_checks_the_checkpoint_once(self, workspace, tmp_path, monkeypatch):
        # load_model checks the tensors; train() copies them as they are
        calls = []
        real = model_mod.check_state
        monkeypatch.setattr(model_mod, "check_state", lambda *a: calls.append(a) or real(*a))
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "resumed")
        cfg["init_checkpoint"] = str(workspace["run"] / "checkpoint.json")
        cfg["train"]["epochs"] = 0
        assert main(["train", "--config", write_json(tmp_path / "resume.json", cfg)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("change", [{"phi_hidden_dim": 4},
                                        {"phi_hidden_dim": 4, "treatment_scale": [1.0, 2.0]}],
                             ids=["hidden_dim", "hidden_dim_and_scale"])
    def test_checkpoint_of_another_model_is_config_error(self, workspace, tmp_path,
                                                         change):
        # the workspace checkpoint has phi_hidden_dim 8 and no treatment_scale
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "resumed")
        cfg["init_checkpoint"] = str(workspace["run"] / "checkpoint.json")
        cfg["model"].update(change)
        rc, _, err = run_main(["train", "--config", write_json(tmp_path / "t.json", cfg)])
        assert rc == 2 and str(sorted(change)) in err
        assert not (tmp_path / "resumed").exists()

    def test_checkpoint_without_metadata_is_data_error(self, workspace, tmp_path):
        # a warm start reads the checkpoint as evaluate and forecast do
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        del doc["metadata"]
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "resumed")
        cfg["init_checkpoint"] = write_json(tmp_path / "ck.json", doc)
        cfg["train"]["epochs"] = 0
        rc, _, err = run_main(["train", "--config", write_json(tmp_path / "t.json", cfg)])
        assert rc == 3 and "missing the model metadata header" in err
        assert not (tmp_path / "resumed").exists()


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
        record = stack_units([unit])
        k, j = decision_split(record.times, t_c)
        qts = record.times[k:j]
        ref = raw_forecasts(record, [(k, j)], params, stats,
                            IntegrationConfig(step_size=step))[0][:, 0, :]

        lines = out.read_text().splitlines()
        assert lines[0] == "time,component_1,component_2"
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(got[:, 0], qts)
        np.testing.assert_array_equal(got[:, 1:], ref)

    @pytest.mark.parametrize("args", [["--t-c", "nan"], ["--t-c", "inf"],
                                      ["--t-c", "30", "--horizon", "-5"],
                                      ["--t-c", "30", "--horizon", "0"],
                                      ["--t-c", "30", "--horizon", "nan"],
                                      ["--t-c", "30", "--horizon", "inf"]], ids="=".join)
    def test_bad_numeric_flag_is_config_error(self, workspace, args):
        # the flags are checked before the checkpoint or the dataset is read
        rc, out, err = run_main(["forecast", "--checkpoint", "absent.json",
                                 "--dataset", "absent", "--unit-id", "0",
                                 "--treatments", "absent.csv", *args])
        assert rc == 2
        assert out == "" and args[-2] in err and "Traceback" not in err

    def test_horizon_without_a_record_time_is_data_error(self, workspace, tmp_path):
        # records are 3 days apart: (30, 31] holds none of their times,
        # though 33 and later are beyond t_c, so the error names the horizon
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        rc, _, err = run_main(["forecast", "--checkpoint",
                               str(workspace["run"] / "checkpoint.json"),
                               "--dataset", str(workspace["ds"]), "--unit-id", "0",
                               "--treatments", str(t), "--t-c", "30", "--horizon", "1"])
        assert rc == 3
        assert err == "data error: no record time within --horizon 1.0 after t_c\n"

    def test_t_c_at_the_record_end_is_data_error(self, workspace, tmp_path):
        # 60 is the records' last time: no forecast time with or without
        # a horizon
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        for horizon in ([], ["--horizon", "3"]):
            rc, _, err = run_main(["forecast", "--checkpoint",
                                   str(workspace["run"] / "checkpoint.json"),
                                   "--dataset", str(workspace["ds"]), "--unit-id", "0",
                                   "--treatments", str(t), "--t-c", "60", *horizon])
            assert rc == 3 and "no forecast times beyond t_c" in err

    def test_t_c_before_the_record_is_data_error(self, workspace, tmp_path):
        # the records start at 0: t_c = -1 has no history to encode
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        rc, _, err = run_main(["forecast", "--checkpoint",
                               str(workspace["run"] / "checkpoint.json"),
                               "--dataset", str(workspace["ds"]), "--unit-id", "0",
                               "--treatments", str(t), "--t-c", "-1"])
        assert rc == 3 and "no record time at or before t_c" in err

    def test_treatment_csv_roundtrip(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("start_time,component_1,component_2\n"
                     "0.0,1.5,0.0\n30.0,0.0,2.0\n")
        ctrl = read_treatment_csv(p, 2)
        np.testing.assert_array_equal(value_at(ctrl, 10.0), [1.5, 0.0])
        np.testing.assert_array_equal(value_at(ctrl, 45.0), [0.0, 2.0])


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


class TestOutputPaths:
    """An output path that cannot be written is a config error naming it,
    found before the command's work and leaving nothing behind."""

    @pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
    @pytest.mark.parametrize("command, config, key, work", [
        ("simulate", "sim", "output_dir", "generate_cancer_dataset"),
        ("train", "train", "run_dir", "train"),
        ("evaluate", "eval", "output_dir", "rmse_grid")])
    def test_directory_blocked_by_a_file(self, workspace, tmp_path, monkeypatch,
                                         command, config, key, work, under):
        monkeypatch.setattr(f"obsnode.cli.{work}", None)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = json.loads(Path(workspace[config]).read_text())
        cfg[key] = str(blocker / "out" if under else blocker)
        rc, out, err = run_main([command, "--config",
                                 write_json(tmp_path / "c.json", cfg)])
        assert rc == 2 and out == ""
        assert err.startswith(f"config error: output directory {cfg[key]}: {blocker} ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "file"]

    @pytest.mark.parametrize("target", ["absent/out", "."], ids=["missing_dir", "a_directory"])
    def test_forecast_output(self, workspace, tmp_path, target):
        t = tmp_path / "a.csv"
        t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
        path = tmp_path / target
        rc, out, err = run_main(["forecast", "--checkpoint",
                                 str(workspace["run"] / "checkpoint.json"),
                                 "--dataset", str(workspace["ds"]), "--unit-id", "0",
                                 "--treatments", str(t), "--t-c", "30",
                                 "--output", str(path)])
        assert rc == 2 and out == ""
        assert err.startswith(f"config error: cannot write output file {path}: ")

    @pytest.mark.parametrize("target", ["absent/r.json", "."], ids=["missing_dir", "a_directory"])
    def test_verify_identification_output(self, tmp_path, target):
        path = tmp_path / target
        cfg = write_json(tmp_path / "v.json", {"format_version": 1, "n_instances": 2,
                                               "output": str(path)})
        rc, out, err = run_main(["verify-identification", "--config", cfg])
        assert rc == 2 and out == ""
        assert err.startswith(f"config error: cannot write output file {path}: ")


def test_simulate_loads_no_scipy(tmp_path):
    # the command runs on numpy alone: a fresh interpreter that imports the
    # CLI and simulates both cohorts has no scipy module loaded
    configs = [write_json(tmp_path / f"{kind}.json", {
        "format_version": 1, "kind": kind, "output_dir": str(tmp_path / kind),
        "params": params}) for kind, params in (
            ("cancer", {"n_patients": 3, "n_cycles": 1}),
            ("semi_synthetic", {"n_patients": 3, "horizon_hours": 6.0}))]
    script = ("import sys\nfrom obsnode.cli import main\n"
              f"codes = [main(['simulate', '--config', c]) for c in {configs!r}]\n"
              "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(obsnode.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--n", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fails_when_a_bias_gradient_is_not_summed_over_units(self, monkeypatch,
                                                                 capsys):
        # the fused nodes' bias and b_impute gradients keep the first unit's row
        monkeypatch.setattr(model_mod, "_unit_sum", lambda g: g[..., :1, :])
        assert main(["gradcheck", "--n", "3"]) == 4
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"

    @pytest.mark.parametrize("args", [["--n", "0"], ["--n", "-3"], ["--tol", "nan"],
                                      ["--tol", "inf"], ["--tol", "-1"], ["--tol", "0"],
                                      ["--seed", "-1"]], ids="=".join)
    def test_bad_argument_is_config_error(self, args):
        rc, out, err = run_main(["gradcheck", "--n", "2", *args])
        assert rc == 2
        assert out == "" and args[0] in err and "Traceback" not in err


def test_too_small_int_step_is_config_error(tmp_path):
    # a 3-hour rollout at int_step 1e-6 takes 3e6 solver steps: train names
    # int_step before its first epoch, and writes no run directory
    sim = write_json(tmp_path / "s.json", {
        "format_version": 1, "kind": "semi_synthetic", "output_dir": str(tmp_path / "ds"),
        "params": {"n_patients": 6, "horizon_hours": 4.0}})
    assert run_main(["simulate", "--config", sim])[0] == 0
    trn = write_json(tmp_path / "t.json", {
        "format_version": 1, "dataset_dir": str(tmp_path / "ds"),
        "run_dir": str(tmp_path / "run"), "model": {"d_y": 2, "m": 2, "d_a": 2},
        "train": {"decision_time_grid": [1.0], "t_f": 4.0, "int_step": 1e-6}})
    rc, _, err = run_main(["train", "--config", trn])
    assert rc == 2
    assert "int_step" in err and "1000000 solver steps" in err
    assert not (tmp_path / "run").exists()


def test_a_tiny_time_gap_is_a_data_error(workspace, tmp_path):
    # three units on the times 0, 1e-300, 1, 2: the default step, a quarter
    # of the smallest gap, asks for about 4e300 steps from t_c = 0.5 to 1.
    # evaluate, forecast and train without int_step exit 3 with one wording,
    # naming that gap and the step it sets; train with an int_step that asks
    # for too many steps exits 2.
    rng = np.random.default_rng(0)
    times = np.array([0.0, 1e-300, 1.0, 2.0])
    units = [Trajectory(i, times, rng.normal(size=(4, 2)), np.ones((4, 2)), np.zeros((4, 2)))
             for i in range(3)]
    ds = tmp_path / "ds"
    write_dataset(ds, dict(zip(("train", "val", "test"), ([u] for u in units))),
                  CancerSimConfig(), 0)
    evl = json.loads(Path(workspace["eval"]).read_text())
    evl.update(dataset_dir=str(ds), output_dir=str(tmp_path / "eval"), t_c_grid=[0.5],
               horizons=[1.0])
    t = tmp_path / "a.csv"
    t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
    budget = ("the records' smallest time gap 1e-300 sets solver steps of 2.5e-301: a "
              "rollout over 1.0 time units takes more than 1000000\n")
    for argv, where in (
            (["evaluate", "--config", write_json(tmp_path / "eval.json", evl)], "test split: "),
            (["forecast", "--checkpoint", str(workspace["run"] / "checkpoint.json"),
              "--dataset", str(ds), "--unit-id", "2", "--treatments", str(t),
              "--t-c", "0.5", "--horizon", "1"], "")):
        assert run_main(argv) == (3, "", f"data error: {where}{budget}")
    trn = json.loads(Path(workspace["train"]).read_text())
    trn.update(dataset_dir=str(ds), run_dir=str(tmp_path / "run"))
    trn["train"].update(decision_time_grid=[0.5], t_f=3.0)
    del trn["train"]["int_step"]
    rc, err = run_config("train", trn, tmp_path / "t.json")
    assert rc == 3 and err == ("data error: the train records' smallest time gap 1e-300 sets "
                               "solver steps of 2.5e-301: a rollout over 2.0 time units takes "
                               "more than 1000000\n")
    trn["train"]["int_step"] = 1e-6
    rc, err = run_config("train", trn, tmp_path / "t.json")
    assert rc == 2 and "int_step: a train rollout over 2.0 time units" in err
    assert not any((tmp_path / d).exists() for d in ("eval", "run"))


def test_int_step_counts_the_steps_of_each_grid_gap(tmp_path, monkeypatch):
    # from t_c = 1 on a 61-point hourly grid, the 59 hours at int_step
    # 59 / 999999.5 are 999999.5 steps, but the solver rounds each hour up
    # to 16950 steps, 1000050 in all: train names int_step before any batch
    # (exit 2), where a batch would fail as a divergence (exit 4)
    def batch(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(train_mod, "_batch_loss", batch)
    sim = write_json(tmp_path / "s.json", {
        "format_version": 1, "kind": "semi_synthetic", "output_dir": str(tmp_path / "ds"),
        "params": {"n_patients": 6, "horizon_hours": 60.0}})
    assert run_main(["simulate", "--config", sim])[0] == 0
    trn = write_json(tmp_path / "t.json", {
        "format_version": 1, "dataset_dir": str(tmp_path / "ds"),
        "run_dir": str(tmp_path / "run"), "model": {"d_y": 2, "m": 2, "d_a": 2},
        "train": {"epochs": 1, "decision_time_grid": [1.0], "t_f": 60.0,
                  "int_step": 59 / 999999.5}})
    rc, _, err = run_main(["train", "--config", trn])
    assert rc == 2
    assert "int_step: a train rollout over 59.0" in err and "1000000 solver steps" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("split", ["train", "val"])
def test_dataset_without_a_train_or_val_split_is_data_error(workspace, tiny_dataset,
                                                            tmp_path, split):
    ds = tmp_path / "ds"
    shutil.copytree(tiny_dataset, ds)
    manifest = json.loads((ds / "manifest.json").read_text())
    del manifest["splits"][split]
    (ds / "manifest.json").write_text(json.dumps(manifest))
    rc, err = run_config("train", tiny_train_config(workspace, ds, tmp_path, "train"),
                         tmp_path / "t.json")
    assert rc == 3
    assert f"has no {split} split" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_diverging_training_is_numeric_error(tmp_path):
    # at learning rate 1e6 most batches blow up after the first Adam step:
    # train gives up on the epoch as a numeric failure (exit 4), reported in
    # one line and not also as a numpy warning
    sim = write_json(tmp_path / "s.json", {
        "format_version": 1, "kind": "cancer", "output_dir": str(tmp_path / "ds"),
        "params": {"n_patients": 30, "n_cycles": 3, "seed": 1}})
    assert run_main(["simulate", "--config", sim])[0] == 0
    trn = write_json(tmp_path / "t.json", {
        "format_version": 1, "dataset_dir": str(tmp_path / "ds"),
        "run_dir": str(tmp_path / "run"),
        "model": {"d_y": 2, "m": 2, "d_a": 2, "phi_hidden_dim": 8,
                  "encoder_hidden_dim": 8},
        "train": {"epochs": 1, "batch_size": 2, "learning_rate": 1e6,
                  "decision_time_grid": [30.0], "t_f": 90.0, "int_step": 3.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run_main(["train", "--config", trn])
    assert rc == 4
    assert err.startswith("numeric error: epoch 0: ") and err.count("\n") == 1
    assert "batches diverged" in err
    assert not (tmp_path / "run").exists()

def tiny_train_config(workspace, tiny_dataset, tmp_path, section, **values):
    """The workspace's train config on the 3-patient dataset, with `values`
    set in its `section`, writing its run under tmp_path."""
    cfg = json.loads(Path(workspace["train"]).read_text())
    cfg.update(dataset_dir=str(tiny_dataset), run_dir=str(tmp_path / "run"))
    cfg[section].update(values)
    return cfg


def test_null_optional_fields_run_as_omitted_ones(workspace, tiny_dataset, tmp_path):
    # JSON null for an optional field is its default, None: a train config
    # with all five set to null exits 0 and writes the run that omits them
    optional = {"train": ["max_grad_norm", "int_step", "val_decision_times", "max_horizon"],
                "model": ["treatment_scale"]}
    runs = []
    for name in ("null", "omitted"):
        cfg = tiny_train_config(workspace, tiny_dataset, tmp_path / name, "train")
        for section, keys in optional.items():
            for key in keys:
                cfg[section].pop(key, None)
                if name == "null":
                    cfg[section][key] = None
        assert run_config("train", cfg, tmp_path / f"{name}.json") == (0, "")
        runs.append([(tmp_path / name / "run" / f).read_bytes()
                     for f in ("config.json", "metrics.csv", "checkpoint.json")])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("defect", ["directory", "norm_stats_length"])
def test_unloadable_checkpoint_is_data_error(workspace, tmp_path, defect):
    # evaluate and forecast refuse it with exit 3, naming what is wrong
    if defect == "directory":
        ck = tmp_path / "ck"
        ck.mkdir()
        message = f"checkpoint {ck}: "
    else:
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        stats = doc["metadata"]["norm_stats"]
        stats["mean"].append(0.0)
        stats["std"].append(1.0)
        ck = Path(write_json(tmp_path / "ck.json", doc))
        message = "norm_stats of length 3 for d_y=2"
    evl = json.loads(Path(workspace["eval"]).read_text())
    evl.update(checkpoint=str(ck), output_dir=str(tmp_path / "eval"))
    t = tmp_path / "a.csv"
    t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
    for argv in (["evaluate", "--config", write_json(tmp_path / "eval.json", evl)],
                 ["forecast", "--checkpoint", str(ck), "--dataset", str(workspace["ds"]),
                  "--unit-id", "0", "--treatments", str(t), "--t-c", "30"]):
        rc, _, err = run_main(argv)
        assert rc == 3 and message in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


def test_manifest_split_without_its_file_is_data_error(workspace, tmp_path):
    # the manifest names val, whose records are gone: every command that
    # reads the dataset exits 3, naming the missing file
    ds = tmp_path / "ds"
    shutil.copytree(workspace["ds"], ds)
    (ds / "val.jsonl").unlink()
    evl = json.loads(Path(workspace["eval"]).read_text())
    evl.update(dataset_dir=str(ds), output_dir=str(tmp_path / "eval"))
    trn = json.loads(Path(workspace["train"]).read_text())
    trn.update(dataset_dir=str(ds), run_dir=str(tmp_path / "run"))
    t = tmp_path / "a.csv"
    t.write_text("start_time,component_1,component_2\n0.0,0.0,0.0\n")
    for argv in (["evaluate", "--config", write_json(tmp_path / "eval.json", evl)],
                 ["train", "--config", write_json(tmp_path / "train.json", trn)],
                 ["forecast", "--checkpoint", str(workspace["run"] / "checkpoint.json"),
                  "--dataset", str(ds), "--unit-id", "0", "--treatments", str(t),
                  "--t-c", "30"]):
        rc, _, err = run_main(argv)
        assert rc == 3 and str(ds / "val.jsonl") in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("defect", MANIFEST_DEFECTS)
def test_manifest_that_does_not_describe_the_dataset_is_data_error(workspace, tmp_path,
                                                                   defect):
    # a manifest of another version, splits that are not an object, a split
    # file whose ids are not its manifest list, or a unit in two splits:
    # forecast of that unit, evaluate and train each exit 3 naming the file
    ds = tmp_path / "ds"
    shutil.copytree(workspace["ds"], ds)
    bad = break_manifest(ds, defect)
    unit = json.loads((ds / "train.jsonl").read_text().splitlines()[0])["unit_id"]
    rcs = [(rc, str(bad) in err, "Traceback" in err) for rc, _, err in
           train_evaluate_forecast(workspace, tmp_path, ds, unit)]
    assert rcs == [(3, True, False)] * 3
    assert not any((tmp_path / d).exists() for d in ("run", "eval", "forecast.csv"))


def test_overflowing_semi_cohort_is_numeric_error(tmp_path):
    # outcomes the simulator cannot compute are a numeric failure, not bad
    # data, and no dataset is written
    sim = write_json(tmp_path / "s.json", {
        "format_version": 1, "kind": "semi_synthetic", "output_dir": str(tmp_path / "ds"),
        "params": {"n_patients": 6, "horizon_hours": 12.0, "alpha_g": 1e308}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc, out, err = run_main(["simulate", "--config", sim])
    assert (rc, out, err) == (4, "", "numeric error: unit 1: non-finite outcome\n")
    assert not (tmp_path / "ds").exists()


def test_failed_validation_names_its_epoch(workspace, tiny_dataset, tmp_path):
    # at learning rate 1e300 epoch 0's one Adam step leaves parameters the
    # solver cannot integrate with, so its validation pass fails: exit 4,
    # naming the epoch and the phase before the solver's own message
    cfg = tiny_train_config(workspace, tiny_dataset, tmp_path, "train", learning_rate=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = run_config("train", cfg, tmp_path / "t.json")
    assert rc == 4
    assert err.startswith("numeric error: epoch 0 validation: integrate: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("scale", [5e-324, 1e-309])
def test_treatment_scale_with_an_infinite_reciprocal_is_config_error(
        workspace, tiny_dataset, tmp_path, scale):
    # 1 / scale overflows, so the scaled doses would be inf: refused as a
    # config value (exit 2, naming the key), not reported as divergence
    cfg = tiny_train_config(workspace, tiny_dataset, tmp_path, "model",
                            treatment_scale=[scale, 1.0])
    rc, err = run_config("train", cfg, tmp_path / "t.json")
    assert rc == 2
    assert "treatment_scale" in err
    assert not (tmp_path / "run").exists()


def run_main(argv):
    """`obsnode *argv`; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_config(command, cfg, path):
    """`obsnode <command> --config path` on `cfg`; returns (exit code,
    stderr)."""
    path.write_text(json.dumps(cfg))
    rc, _, err = run_main([command, "--config", str(path)])
    return rc, err


def fuzz_bases(workspace):
    """command -> (subcommand, valid base config, [(key path, annotation)]
    of the fields that may be swapped)."""
    root = workspace["root"]

    def fields(cls, *prefix):
        hints = cls if isinstance(cls, dict) else typing.get_type_hints(cls)
        return [(prefix + (name,), hint) for name, hint in hints.items()]

    trn = json.loads((root / "train.json").read_text())
    trn["run_dir"] = str(root / "fuzz_run")
    evl = json.loads((root / "eval.json").read_text())
    evl["output_dir"] = str(root / "fuzz_eval")
    sim = {"format_version": 1, "output_dir": str(root / "fuzz_ds")}
    return {
        "model": ("train", trn, fields(ObsNodeConfig, "model")),
        "train": ("train", trn, fields(TrainConfig, "train") + fields(cli.TRAIN_KEYS)),
        "simulate_cancer": ("simulate", dict(sim, kind="cancer", params={
            "n_patients": 3, "n_cycles": 1, "dt": 0.5, "obs_every": 3.0}),
            fields(CancerSimConfig, "params") + fields(cli.SIMULATE_KEYS)),
        "simulate_semi": ("simulate", dict(sim, kind="semi_synthetic", params={
            "n_patients": 3, "horizon_hours": 6.0}),
            fields(SemiSynthConfig, "params")),
        "evaluate": ("evaluate", evl, fields(cli.EVALUATE_KEYS)),
        "verify": ("verify-identification",
                   {"format_version": 1, "n_instances": 2}, fields(cli.VERIFY_KEYS)),
    }


# JSON values by type. Ints stay small so that a swapped-in int is a cheap
# run; the 400-digit int fits neither 64 bits nor a float.
JSON_VALUES = {
    int: st.integers(-3, 3),
    float: st.floats(),
    bool: st.booleans(),
    str: st.text("ab_", max_size=3),
    list: st.lists(st.one_of(st.integers(-3, 3), st.floats(-5.0, 5.0),
                             st.text("ab", max_size=2)), max_size=3),
    type(None): st.none(),
    "400-digit int": st.just(10 ** 399 + 1),
}


# Extreme values inside each field's own JSON type. A list field draws empty,
# repeated and unsorted lists, and lists holding an extreme float.
EXTREME_FLOATS = [5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]
EXTREME_VALUES = {
    bool: [True, False],
    int: [0, -1, 10**6, 2**63 - 1],
    float: EXTREME_FLOATS,
    list: [[], [1.0, 1.0], [2.0, 1.0]] + [l for x in EXTREME_FLOATS for l in ([x], [x, 1.0])],
}
# Values that pass every bound yet ask for minutes of valid work, left out of
# the draw: 10**6 cancer patients are 6e7 Euler steps on the fuzz base, under
# MAX_SIM_STEPS.
SLOW_VALUES = {("simulate_cancer", ("params", "n_patients")): [10**6]}


def own_types(hint):
    """The JSON value types a field annotated `hint` takes as its own."""
    arms = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    own = {typing.get_origin(h) or h for h in arms}
    return own | ({list} if tuple in own else set())


class TestConfigTypes:
    @pytest.mark.parametrize("command", ["model", "train", "simulate_cancer",
                                         "simulate_semi", "evaluate", "verify"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_swapped_value_type_never_crashes(self, workspace, command, data):
        # one field swapped for a JSON value of another type: the command
        # runs or rejects the value, but never ends in an uncaught exception
        sub, base, fields = fuzz_bases(workspace)[command]
        path, hint = data.draw(st.sampled_from(fields), label="field")
        kind = data.draw(st.sampled_from(
            [k for k in JSON_VALUES if k not in own_types(hint)]), label="type")
        cfg = copy.deepcopy(base)
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = data.draw(JSON_VALUES[kind], label="value")
        rc, err = run_config(sub, cfg, workspace["root"] / "fuzz.json")
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,path,value", [
        ("train", ("train", "batch_size"), 3.5),
        ("train", ("train", "epochs"), 1.5),
        ("train", ("train", "epochs"), True),
        ("train", ("train", "int_step"), -1.0),
        ("train", ("train", "val_decision_times"), []),
        ("train", ("train", "seed"), -1),
        ("train", ("train", "decision_time_grid"), [30.0, "45"]),
        ("train", ("model", "phi_hidden_dim"), 4.5),
        ("train", ("model", "treatment_scale"), ["a", 1.0]),
        ("train", ("model", "treatment_scale"), [1.0]),
        ("train", ("model", "treatment_scale"), [0.0, 1.0]),
        ("train", ("dataset_dir",), 3),
        ("simulate_cancer", ("params", "n_patients"), 9.5),
        ("simulate_cancer", ("params", "n_cycles"), 2.5),
        ("simulate_cancer", ("params", "seed"), 0.5),
        ("simulate_cancer", ("params", "seed"), -1),
        ("simulate_cancer", ("params", "obs_every"), 1e-300),
        ("simulate_cancer", ("params", "obs_every"), 1e300),
        ("simulate_cancer", ("params", "dt"), 1e-300),
        ("simulate_cancer", ("params", "n_patients"), 10**9),
        ("train", ("model", "phi_hidden_dim"), 10**7),
        ("simulate_semi", ("params", "nu"), 0),
        ("simulate_semi", ("params", "horizon_hours"), 1e300),
        ("simulate_semi", ("params", "horizon_hours"), 1e12),
        ("simulate_semi", ("params", "n_patients"), 10**12),
        ("simulate_semi", ("params", "nu"), 2**63 - 1),
        ("simulate_semi", ("params", "nu"), 10**8),
        ("simulate_semi", ("params", "horizon_hours"), 5e-324),
        ("simulate_semi", ("params", "eps_lengthscale"), 5e-324),
        ("simulate_semi", ("params", "g_lengthscale"), 5e-324),
        ("simulate_semi", ("params", "readout_lengthscale"), 5e-324),
        ("simulate_semi", ("kind",), "semi"),
        ("evaluate", ("heatmap",), "no"),
        ("evaluate", ("split",), ["test"]),
        ("evaluate", ("split",), "train_val"),
        ("verify", ("n_instances",), 0),
        ("verify", ("n_instances",), 10**12),
        ("verify", ("n_instances",), 2**63 - 1),
        ("verify", ("n_instances",), "abc"),
        ("verify", ("tolerance",), "x"),
        ("verify", ("seed",), -1),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_bad_value_is_config_error(self, workspace, tmp_path, command,
                                       path, value):
        sub, cfg, _ = fuzz_bases(workspace)[command]
        cfg = copy.deepcopy(cfg)
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        rc, err = run_config(sub, cfg, tmp_path / "cfg.json")
        assert rc == 2
        assert path[-1] in err

    @settings(max_examples=30, deadline=None)
    @given(values=st.fixed_dictionaries({
        "n_instances": st.sampled_from([0, -1, 1, 10**6, 2**63 - 1]),
        "tolerance": st.sampled_from([5e-324, 1e-300, 1e300, -1.0]),
        "seed": st.sampled_from([0, 2**63 - 1])}))
    def test_verify_values_inside_their_types(self, workspace, values):
        # extreme values of each field's own type: the command runs or
        # rejects them at once, and a rejection writes no report
        sub, base, fields = fuzz_bases(workspace)["verify"]
        assert set(values) < {path[-1] for path, _ in fields}
        report = workspace["root"] / "fuzz_report.json"
        report.unlink(missing_ok=True)
        cfg = dict(base, output=str(report), **values)
        rc, err = run_config(sub, cfg, workspace["root"] / "fuzz.json")
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert report.exists() == (rc != 2)

    @pytest.mark.parametrize("command", ["simulate_cancer", "simulate_semi", "evaluate",
                                         "train"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_values_inside_their_types(self, workspace, tiny_dataset, command, data):
        # an extreme value of one field's own type: the command runs and
        # writes its artifacts, or rejects it and leaves no output directory.
        # train draws its model and train fields on 3 patients, all but
        # epochs, which stays 1: epochs 10**6 is hours of valid work.
        sub, base, fields = fuzz_bases(workspace)[command]
        if sub == "train":
            base = dict(base, dataset_dir=str(tiny_dataset))
            fields = [(path, hint) for path, hint in fuzz_bases(workspace)["model"][2] + fields
                      if path != ("train", "epochs")]
        path, kind = data.draw(st.sampled_from(
            [(path, kind) for path, hint in fields
             for kind in own_types(hint) & {bool, int, float, list}]), label="field")
        slow = SLOW_VALUES.get((command, path), [])
        cfg = copy.deepcopy(base)
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = data.draw(st.sampled_from(
            [v for v in EXTREME_VALUES[kind] if v not in slow]), label="value")
        out_key, artifact = {"simulate": ("output_dir", "manifest.json"),
                             "evaluate": ("output_dir", "rmse_grid.csv"),
                             "train": ("run_dir", "checkpoint.json")}[sub]
        out = Path(cfg[out_key])
        shutil.rmtree(out, ignore_errors=True)
        rc, err = run_config(sub, cfg, workspace["root"] / "fuzz.json")
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert out.exists() == (out / artifact).exists() == (rc == 0)

    @pytest.mark.parametrize("params,keys", [
        ({"d_y": 10**6}, ["d_y", "MAX_SIM_STEPS"]),
        ({"d_eps": 10**6}, ["d_eps", "MAX_SIM_STEPS"]),
        ({"d_y": 400_000, "d_eps": 1, "nu": 1}, ["d_y", "d_eps", "MAX_SIM_LOOPS"]),
        ({"horizon_hours": 2000.0, "w": 10**6}, ["horizon_hours", "w + 1", "MAX_SIM_LOOPS"]),
        ({"n_patients": 588, "horizon_hours": 0.6, "nu": 10_000},
         ["horizon_hours", "MAX_SIM_STEPS"]),
    ], ids=["d_y", "d_eps", "functions", "window", "fractional_hours"])
    def test_semi_size_is_checked_before_any_draw(self, workspace, tmp_path, monkeypatch,
                                                  params, keys):
        # each passes a bound on n_patients x hours x (d_y + d_a + d_eps) x
        # nu alone, and then asks for minutes of Python loops or gigabytes of
        # read-out weights; it exits 2 naming its keys before a random
        # function or spline is drawn
        for draw in ("rff_draw", "_bspline_mixture"):
            monkeypatch.setattr(f"obsnode.simulate.{draw}", None)
        sub, cfg, _ = fuzz_bases(workspace)["simulate_semi"]
        cfg = copy.deepcopy(cfg)
        cfg["params"].update({"horizon_hours": 1e-300, **params})
        cfg["output_dir"] = str(tmp_path / "ds")
        start = time.perf_counter()
        rc, err = run_config(sub, cfg, tmp_path / "cfg.json")
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and all(k in err for k in keys)
        assert not Path(cfg["output_dir"]).exists()

    def test_verify_size_is_checked_before_any_instance(self, workspace, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr("obsnode.cli.random_observable_scm", None)
        sub, cfg, _ = fuzz_bases(workspace)["verify"]
        cfg = dict(cfg, n_instances=MAX_VERIFY_CELLS // QUERY_CELLS + 1,
                   output=str(tmp_path / "r.json"))
        rc, err = run_config(sub, cfg, tmp_path / "cfg.json")
        assert rc == 2 and "n_instances" in err and "MAX_VERIFY_CELLS" in err
        assert not (tmp_path / "r.json").exists()

    def test_model_size_is_checked_before_any_work(self, workspace, tmp_path,
                                                    monkeypatch):
        # a model past MAX_PARAMS exits 2 before the dataset is read or
        # training makes any parameter
        for work in ("read_dataset", "train"):
            monkeypatch.setattr(f"obsnode.cli.{work}", None)
        sub, cfg, _ = fuzz_bases(workspace)["train"]
        cfg = copy.deepcopy(cfg)
        cfg["model"]["encoder_hidden_dim"] = 2000
        rc, err = run_config(sub, cfg, tmp_path / "cfg.json")
        assert rc == 2 and "encoder_hidden_dim" in err and "MAX_PARAMS" in err

    def test_list_becomes_tuple_by_annotation(self, workspace, tmp_path):
        sub, cfg, _ = fuzz_bases(workspace)["simulate_semi"]
        cfg = dict(cfg, output_dir=str(tmp_path / "ds"))
        cfg["params"] = dict(cfg["params"], gamma_A=[0.5, 0.5], bias=[-1, -1])
        assert run_config(sub, cfg, tmp_path / "cfg.json")[0] == 0
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["config"]["gamma_A"] == [0.5, 0.5]


class TestUnscorableDecisionTimes:
    # records are 3 days apart: 30.0 has history and later times, but none
    # within max_horizon = 1.0 after it, so that error names the horizon
    @pytest.mark.parametrize("change,split,message", [
        ({"decision_time_grid": [60.0], "t_f": 90.0}, "train",
         "train decision time 60.0 has no history or no target"),
        ({"val_decision_times": [500.0]}, "val",
         "val decision time 500.0 has no history or no target"),
        ({"max_horizon": 1.0}, "train",
         "train decision time 30.0 has no record time within max_horizon=1.0 after it"),
    ], ids=["grid_at_record_end", "val_times_past_end", "horizon_below_spacing"])
    def test_no_scorable_time_is_config_error(self, workspace, tmp_path,
                                              change, split, message):
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "run")
        cfg["train"].update(change)
        rc, err = run_config("train", cfg, tmp_path / "t.json")
        assert rc == 2
        assert err == f"config error: {message}: the {split} records span [0.0, 60.0]\n"
        assert not (tmp_path / "run").exists()


def test_one_unscorable_grid_time_is_config_error(workspace, tmp_path, monkeypatch):
    # 60.0 is the records' last time, so it has no target: train rejects the
    # config before it makes any parameter, where it once dropped its batches
    monkeypatch.setattr("obsnode.train.ObsNodeParams", None)
    cfg = json.loads((workspace["root"] / "train.json").read_text())
    cfg["run_dir"] = str(tmp_path / "run")
    cfg["train"].update(decision_time_grid=[30.0, 60.0], t_f=90.0)
    rc, err = run_config("train", cfg, tmp_path / "t.json")
    assert rc == 2
    assert "train decision time 60.0 has no history or no target" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["uniform_random", "fixed_grid"])
def test_decision_sampling_is_an_unknown_key(workspace, tmp_path, value):
    cfg = json.loads((workspace["root"] / "train.json").read_text())
    cfg["run_dir"] = str(tmp_path / "run")
    cfg["train"]["decision_sampling"] = value
    rc, err = run_config("train", cfg, tmp_path / "t.json")
    assert rc == 2 and "unknown keys ['decision_sampling']" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["rk4", "euler"])
def test_int_method_is_an_unknown_key(workspace, tmp_path, value):
    # RK4 is the only solver, so a train config that names a method, even
    # RK4, names a key that no longer exists
    cfg = json.loads((workspace["root"] / "train.json").read_text())
    cfg["run_dir"] = str(tmp_path / "run")
    cfg["train"]["int_method"] = value
    rc, err = run_config("train", cfg, tmp_path / "t.json")
    assert rc == 2 and "unknown keys ['int_method']" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["leakyrelu", "tanh", "sigmoid"])
def test_phi_activation_is_an_unknown_key(workspace, tmp_path, value):
    # the field's leaky ReLU is fixed, so a model config that names an
    # activation, even the leaky ReLU, names a key that no longer exists
    cfg = json.loads((workspace["root"] / "train.json").read_text())
    cfg["run_dir"] = str(tmp_path / "run")
    cfg["model"]["phi_activation"] = value
    rc, err = run_config("train", cfg, tmp_path / "t.json")
    assert rc == 2 and "unknown keys ['phi_activation']" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("defect,message", [
    ("unobserved", "component 1: fewer than 2 observations"),
    ("observed_once", "component 1: fewer than 2 observations"),
    ("constant", "component 1 has zero spread")])
def test_evaluated_split_without_a_scale_is_data_error(workspace, tmp_path, defect, message):
    # a component of the evaluated split with no spread leaves its RMSE
    # nothing to be divided by: evaluate exits 3 before it writes anything
    ds = tmp_path / "ds"
    shutil.copytree(workspace["ds"], ds)
    path = ds / "test.jsonl"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    for k, rec in enumerate(recs):
        for i, (mask, y) in enumerate(zip(rec["mask"], rec["y"])):
            if defect == "constant":
                y[1] = 1.0
            else:
                mask[1] = float(defect == "observed_once" and k == i == 0)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    cfg = json.loads((workspace["root"] / "eval.json").read_text())
    cfg.update(dataset_dir=str(ds), output_dir=str(tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(["evaluate", "--config", write_json(tmp_path / "e.json", cfg)])
    assert rc == 3 and out == ""
    assert f"test split: {message}" in err
    assert not (tmp_path / "out").exists()


def test_train_split_without_a_scale_is_data_error(workspace, tmp_path):
    # zscore_fit's error names the split, as evaluate's does, and no run
    # directory is made
    ds = tmp_path / "ds"
    shutil.copytree(workspace["ds"], ds)
    path = ds / "train.jsonl"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in recs:
        for y in rec["y"]:
            y[1] = 1.0
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    cfg = json.loads((workspace["root"] / "train.json").read_text())
    cfg.update(dataset_dir=str(ds), run_dir=str(tmp_path / "run"))
    rc, err = run_config("train", cfg, tmp_path / "t.json")
    assert rc == 3
    assert err.startswith("data error: train split: component 1 has zero spread")
    assert not (tmp_path / "run").exists()


def mutated_dataset(src, dst, split, line, mutate):
    """A copy of the dataset at `src` in `dst` with `mutate` applied to the
    record on `line` of `split`; returns that record's unit id."""
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = dst / f"{split}.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line])
    mutate(rec)
    lines[line] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return rec["unit_id"]


def train_evaluate_forecast(workspace, tmp, ds, unit, checkpoint=None,
                            treatments=None, epochs=1):
    """(exit code, stdout, stderr) of `train` (from `checkpoint` when given),
    then `evaluate` and `forecast` of `unit` (with the workspace checkpoint
    unless `checkpoint` is given) on the dataset `ds`; outputs go to `tmp`."""
    root = workspace["root"]
    ck = checkpoint or str(workspace["run"] / "checkpoint.json")
    trn = json.loads((root / "train.json").read_text())
    trn.update(dataset_dir=str(ds), run_dir=str(tmp / "run"))
    trn["train"]["epochs"] = epochs
    if checkpoint:
        trn["init_checkpoint"] = checkpoint
    evl = json.loads((root / "eval.json").read_text())
    evl.update(dataset_dir=str(ds), checkpoint=ck, output_dir=str(tmp / "eval"))
    if treatments is None:
        treatments = tmp / "a.csv"
        treatments.write_text("start_time,component_1,component_2\n"
                              "0.0,14.0,2.0\n30.0,0.0,0.0\n")
    return [run_main(argv) for argv in (
        ["train", "--config", write_json(tmp / "train.json", trn)],
        ["evaluate", "--config", write_json(tmp / "eval.json", evl)],
        ["forecast", "--checkpoint", ck, "--dataset", str(ds), "--unit-id",
         str(unit), "--treatments", str(treatments), "--t-c", "30",
         "--output", str(tmp / "forecast.csv")])]


class TestLegacyCheckpoint:
    """A checkpoint carries its normalization, and its config names only
    today's model keys: one without `norm_stats`, or one written while the
    model had a recursive rollout mode (`rollout_mode`, `recursive_chunk`)
    or a choice of the field's activation (`phi_activation`), is a data
    error naming the file."""

    @pytest.mark.parametrize("key", ["norm_stats", "rollout_mode", "phi_activation"])
    def test_checkpoint_is_data_error_naming_it(self, workspace, tmp_path, key):
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        if key == "norm_stats":
            del doc["metadata"]["norm_stats"]
        elif key == "rollout_mode":
            doc["metadata"]["config"].update(rollout_mode="long_horizon", recursive_chunk=1.0)
        else:
            doc["metadata"]["config"]["phi_activation"] = "leakyrelu"
        ck = write_json(tmp_path / "legacy.json", doc)
        # train from it (init_checkpoint), evaluate with it and forecast from it
        for rc, out, err in train_evaluate_forecast(workspace, tmp_path, workspace["ds"],
                                                    0, ck, epochs=0):
            assert rc == 3 and out == ""
            assert f"checkpoint {ck}: bad metadata: " in err and key in err
        assert not any((tmp_path / d).exists() for d in ("run", "eval", "forecast.csv"))

    @pytest.mark.parametrize("key,value", [("rollout_mode", "long_horizon"),
                                           ("recursive_chunk", 1.0)])
    def test_rollout_key_in_train_config_is_config_error(self, workspace, tmp_path,
                                                         key, value):
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "run")
        cfg["model"][key] = value
        rc, err = run_config("train", cfg, tmp_path / "t.json")
        assert rc == 2 and f"unknown keys ['{key}']" in err
        assert not (tmp_path / "run").exists()


class TestRecordContract:
    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_nan_at_an_unobserved_entry_changes_nothing(self, workspace,
                                                        tmp_path, split):
        seen = []
        for value in (0.0, float("nan")):
            def hole(rec):
                rec["mask"][4][1], rec["y"][4][1] = 0.0, value

            unit = mutated_dataset(workspace["ds"], tmp_path / "ds", split, 1, hole)
            runs = train_evaluate_forecast(workspace, tmp_path, tmp_path / "ds",
                                           unit)
            assert [rc for rc, _, _ in runs] == [0, 0, 0]
            files = sorted(p for d in ("run", "eval") for p in (tmp_path / d).iterdir())
            files.append(tmp_path / "forecast.csv")
            seen.append((runs, [(p.name, p.read_bytes()) for p in files]))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("defect", ["observed_nan", "y_row_short"])
    def test_broken_record_is_data_error_naming_the_unit(self, workspace,
                                                         tmp_path, defect):
        def breaks(rec):
            if defect == "observed_nan":
                rec["y"][4][1] = float("nan")
            else:
                del rec["y"][-1]

        unit = mutated_dataset(workspace["ds"], tmp_path / "ds", "test", 2, breaks)
        for rc, _, err in train_evaluate_forecast(workspace, tmp_path,
                                                  tmp_path / "ds", unit):
            assert rc == 3
            assert f"unit {unit}:" in err

    def test_dataset_dims_must_match_the_model(self, workspace, tmp_path):
        sim = write_json(tmp_path / "s.json", {
            "format_version": 1, "kind": "semi_synthetic",
            "output_dir": str(tmp_path / "ds"),
            "params": {"n_patients": 9, "horizon_hours": 60.0, "d_y": 3}})
        assert main(["simulate", "--config", sim]) == 0
        (rc_t, _, err_t), (rc_e, _, err_e), (rc_f, _, err_f) = \
            train_evaluate_forecast(workspace, tmp_path, tmp_path / "ds", 0)
        assert rc_t == rc_e == rc_f == 3
        assert "record (d_y, d_a) (3, 2) != model (2, 2)" in err_t
        for err in (err_e, err_f):
            assert "records with d_y=3, statistics with d_y=2" in err


def test_simulate_constant_first_treatment_has_nan_correlation(tmp_path):
    # only the second treatment is ever given in this small cohort
    sim = write_json(tmp_path / "s.json", {
        "format_version": 1, "kind": "semi_synthetic",
        "output_dir": str(tmp_path / "ds"),
        "params": {"n_patients": 3, "horizon_hours": 6.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_main(["simulate", "--config", sim])
    assert rc == 0 and err == ""
    assert "treatment_outcome_correlation: nan\n" in out


# Replacement values for one entry of a record, a checkpoint tensor or
# metadata entry, and a treatment-CSV cell.
BAD_VALUES = [float("nan"), float("inf"), -1, 2, "x", None]
BAD_CELLS = ["nan", "inf", "-1", "2", "x", ""]
# metadata integers whose implied parameters could never be allocated
LARGE_INTS = [10**9, 10**12, 10**30]


def mutate_checkpoint(doc, data):
    """One tensor value, one tensor shape entry, one tensor name or one
    metadata entry of the checkpoint `doc`, changed in place."""
    target = data.draw(st.sampled_from(["value", "shape", "name", "metadata"]),
                       label="checkpoint part")
    if target == "name":
        names = [e["name"] for e in doc["tensors"]]
        entry = data.draw(st.sampled_from(doc["tensors"]), label="tensor")
        entry["name"] = data.draw(st.sampled_from(names + ["foo", ""]), label="name")
        return
    if target == "metadata":
        meta = doc["metadata"]
        keys = [("config", k) for k in meta["config"]] + [
            ("norm_stats", k, i) for k in ("mean", "std") for i in range(2)]
        path = data.draw(st.sampled_from(keys + [("cell",)]), label="entry")
        section = meta
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = data.draw(
            st.sampled_from(BAD_VALUES + [0, 2.5, True] + LARGE_INTS), label="value")
        return
    entry = data.draw(st.sampled_from(doc["tensors"]), label="tensor")
    field = entry["values"] if target == "value" else entry["shape"]
    i = data.draw(st.integers(0, len(field) - 1), label="index")
    if target == "shape" and data.draw(st.booleans(), label="drop"):
        del field[i]
    else:
        field[i] = data.draw(st.sampled_from(BAD_VALUES), label="value")


def mutate_manifest(path, data):
    """One part of the dataset manifest at `path` changed in place: its
    format_version, its splits object, or one unit id of one split's list."""
    doc = json.loads(path.read_text())
    target = data.draw(st.sampled_from(["format_version", "splits", "unit id"]),
                       label="manifest part")
    if target == "format_version":
        doc[target] = data.draw(st.sampled_from(BAD_VALUES + [0, 99, True]), label="value")
    elif target == "splits":
        doc[target] = data.draw(st.sampled_from([list(doc[target]), "train", None, {}]),
                                label="value")
    else:
        ids = doc["splits"][data.draw(st.sampled_from(sorted(doc["splits"])), label="split")]
        i = data.draw(st.integers(0, len(ids) - 1), label="index")
        if data.draw(st.booleans(), label="drop"):
            del ids[i]
        else:
            ids[i] = data.draw(st.sampled_from(BAD_VALUES + [ids[0], 10**30]), label="value")
    path.write_text(json.dumps(doc))


class TestInputFuzz:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_input_never_crashes(self, workspace, data):
        # one record entry, manifest entry, treatment-CSV cell or checkpoint
        # entry changed: train, evaluate and forecast run or reject it, never
        # with a traceback
        tmp = workspace["root"] / "input_fuzz"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        ds, ck, treatments, unit = workspace["ds"], None, None, 0
        target = data.draw(st.sampled_from(["record", "manifest", "csv", "checkpoint"]),
                           label="target")
        if target == "record":
            split = data.draw(st.sampled_from(["train", "val", "test"]),
                              label="split")
            field = data.draw(st.sampled_from(["times", "y", "mask", "a"]),
                              label="field")
            row = data.draw(st.integers(0, 20), label="row")
            drop = field != "times" and data.draw(st.booleans(), label="drop")
            value = data.draw(st.sampled_from(BAD_VALUES), label="value")
            col = data.draw(st.integers(0, 1), label="column")

            def mutate(rec):
                if drop:
                    del rec[field][row]
                elif field == "times":
                    rec["times"][row] = value
                else:
                    rec[field][row][col] = value

            ds = tmp / "ds"
            unit = mutated_dataset(workspace["ds"], ds, split, 0, mutate)
        elif target == "manifest":
            ds = tmp / "ds"
            shutil.copytree(workspace["ds"], ds)
            mutate_manifest(ds / "manifest.json", data)
        elif target == "csv":
            rows = [["start_time", "component_1", "component_2"],
                    ["0.0", "14.0", "2.0"], ["30.0", "0.0", "0.0"]]
            rows[data.draw(st.integers(0, 2), label="row")][
                data.draw(st.integers(0, 2), label="column")] = \
                data.draw(st.sampled_from(BAD_CELLS), label="cell")
            treatments = tmp / "a.csv"
            treatments.write_text("\n".join(map(",".join, rows)) + "\n")
        else:
            doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
            mutate_checkpoint(doc, data)
            ck = write_json(tmp / "ck.json", doc)
        epochs = data.draw(st.sampled_from([0, 1]), label="epochs")
        for rc, _, err in train_evaluate_forecast(workspace, tmp, ds, unit, ck,
                                                  treatments, epochs):
            assert rc in (0, 2, 3, 4)
            assert "Traceback" not in err
