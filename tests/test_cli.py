import contextlib
import copy
import io
import json
import shutil
import types
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsnode.cli import main, read_treatment_csv
from obsnode.evaluate import model_predictor
from obsnode.model import ObsNodeConfig, load_model, window
from obsnode.odeint import IntegrationConfig
from obsnode.simulate import CancerSimConfig, SemiSynthConfig, read_dataset
from obsnode.train import TrainConfig, stack_units


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
        doc = json.loads((workspace["run"] / "checkpoint.json").read_text())
        doc["metadata"]["config"][key] = value
        ck = write_json(tmp_path / "ck.json", doc)
        evl = json.loads((workspace["root"] / "eval.json").read_text())
        evl.update(checkpoint=ck, output_dir=str(tmp_path / "eval"))
        rc, _, err = run_main(["evaluate", "--config",
                               write_json(tmp_path / "eval.json", evl)])
        assert rc == 3 and "Traceback" not in err
        assert "checkpoint tensor" in err or "checkpoint missing tensor" in err

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
                                        {"horizons": [10 ** 400]}],
                             ids=["no_horizons", "no_t_c", "negative_horizon",
                                  "string_t_c", "huge_horizon"])
    def test_bad_evaluate_grid_is_config_error(self, workspace, tmp_path,
                                               change, capsys):
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
        record = stack_units([unit])
        qts = record.times[window(record.times, t_c)[1]]
        ref = predict(record, t_c, qts)[:, 0, :]

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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverging_training_is_numeric_error(tmp_path):
    # at learning rate 1e6 most batches blow up after the first Adam step:
    # train gives up on the epoch as a numeric failure (exit 4)
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
    rc, _, err = run_main(["train", "--config", trn])
    assert rc == 4
    assert err.startswith("numeric error: epoch 0: ") and "batches diverged" in err
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
        "train": ("train", trn, fields(TrainConfig, "train") + fields({
            "dataset_dir": str, "run_dir": str, "model": dict, "train": dict,
            "init_checkpoint": str})),
        "simulate_cancer": ("simulate", dict(sim, kind="cancer", params={
            "n_patients": 3, "n_cycles": 1, "dt": 0.5, "obs_every": 3.0}),
            fields(CancerSimConfig, "params") + fields(
                {"kind": str, "output_dir": str, "params": dict})),
        "simulate_semi": ("simulate", dict(sim, kind="semi_synthetic", params={
            "n_patients": 3, "horizon_hours": 6.0}),
            fields(SemiSynthConfig, "params")),
        "evaluate": ("evaluate", evl, fields({
            "dataset_dir": str, "checkpoint": str, "output_dir": str,
            "t_c_grid": list, "horizons": list, "split": str, "heatmap": bool})),
        "verify": ("verify-identification",
                   {"format_version": 1, "n_instances": 2},
                   fields({"n_instances": int, "seed": int, "tolerance": float,
                           "output": str})),
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
        ("train", ("train", "int_method"), "midpoint"),
        ("train", ("train", "int_step"), -1.0),
        ("train", ("train", "seed"), -1),
        ("train", ("train", "decision_time_grid"), [30.0, "45"]),
        ("train", ("model", "phi_hidden_dim"), 4.5),
        ("train", ("model", "treatment_scale"), ["a", 1.0]),
        ("train", ("dataset_dir",), 3),
        ("simulate_cancer", ("params", "n_patients"), 9.5),
        ("simulate_cancer", ("params", "n_cycles"), 2.5),
        ("simulate_cancer", ("params", "seed"), 0.5),
        ("simulate_cancer", ("params", "seed"), -1),
        ("simulate_semi", ("params", "nu"), 0),
        ("evaluate", ("heatmap",), "no"),
        ("evaluate", ("split",), ["test"]),
        ("verify", ("n_instances",), 0),
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

    def test_list_becomes_tuple_by_annotation(self, workspace, tmp_path):
        sub, cfg, _ = fuzz_bases(workspace)["simulate_semi"]
        cfg = dict(cfg, output_dir=str(tmp_path / "ds"))
        cfg["params"] = dict(cfg["params"], gamma_A=[0.5, 0.5], bias=[-1, -1])
        assert run_config(sub, cfg, tmp_path / "cfg.json")[0] == 0
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["config"]["gamma_A"] == [0.5, 0.5]


class TestUnscorableDecisionTimes:
    @pytest.mark.parametrize("change,split", [
        ({"decision_time_grid": [60.0], "t_f": 90.0}, "train"),
        ({"val_decision_times": [500.0]}, "val"),
        ({"max_horizon": 1.0}, "train"),
    ], ids=["grid_at_record_end", "val_times_past_end", "horizon_below_spacing"])
    def test_no_scorable_time_is_config_error(self, workspace, tmp_path,
                                              change, split):
        cfg = json.loads((workspace["root"] / "train.json").read_text())
        cfg["run_dir"] = str(tmp_path / "run")
        cfg["train"].update(change)
        rc, err = run_config("train", cfg, tmp_path / "t.json")
        assert rc == 2
        assert f"the {split} records span [0.0, 60.0]" in err
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
    """One tensor value, one tensor shape entry, or one metadata entry of the
    checkpoint `doc`, changed in place."""
    target = data.draw(st.sampled_from(["value", "shape", "metadata"]),
                       label="checkpoint part")
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


class TestInputFuzz:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_input_never_crashes(self, workspace, data):
        # one record entry, treatment-CSV cell or checkpoint entry changed:
        # train, evaluate and forecast run or reject it, never with a traceback
        tmp = workspace["root"] / "input_fuzz"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        ds, ck, treatments, unit = workspace["ds"], None, None, 0
        target = data.draw(st.sampled_from(["record", "csv", "checkpoint"]),
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
