"""Command-line entry point.

Subcommands cover the full workflow: simulate datasets, train, evaluate RMSE
grids, forecast a single unit under a hypothetical treatment path, verify the
identification theory on finite instances, and run the gradient checker.
Commands are pure functions of their config and input files; reruns produce
byte-identical outputs. Exit codes: 0 success, 2 usage/config error, 3 data
error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import types
import typing
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import grad_check
from .errors import ConfigError, DataError, NumericError
from .evaluate import raw_forecasts, rmse_grid, write_grid_csv, write_grid_pgm
from .identify import (MAX_VERIFY_CELLS, QUERY_CELLS, adjustment_estimate,
                       interventional_truth, linear_gaussian_refinement,
                       nonidentifiability_witness, random_observable_scm, random_query)
from .model import (History, ObsNodeConfig, ObsNodeParams, check_size, load_model,
                    param_shapes)
from .odeint import METHODS, ControlPath, IntegrationConfig
from .simulate import (CancerSimConfig, SemiSynthConfig,
                       generate_cancer_dataset, generate_semi_synthetic,
                       read_dataset, write_dataset)
from .train import (TrainConfig, _batch_loss, _targets, stack_units, train,
                    zscore_apply, zscore_fit)

FORMAT_VERSION = 1
# The top-level keys of each command's config, by type; a section has its dataclass.
SIMULATE_KEYS = {"kind": str, "output_dir": str, "params": dict}
TRAIN_KEYS = {"dataset_dir": str, "run_dir": str, "model": dict, "train": dict,
              "init_checkpoint": str}
EVALUATE_KEYS = {"dataset_dir": str, "checkpoint": str, "output_dir": str, "split": str,
                 "t_c_grid": list[float], "horizons": list[float], "heatmap": bool}
VERIFY_KEYS = {"n_instances": int, "seed": int, "tolerance": float, "output": str}


def load_json_config(path, fields, optional_keys):
    """The JSON object in the config file at `path`, checked by :func:`_checked_section`
    after its `format_version`; every key of `fields` but the `optional_keys` is required."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}")
    if type(cfg) is not dict or cfg.pop("format_version", None) != FORMAT_VERSION:
        raise ConfigError(f"{path}: expected a JSON object with format_version "
                          f"{FORMAT_VERSION}")
    return _checked_section(cfg, fields, set(fields) - set(optional_keys), str(path))


_KINDS = {bool: "true or false", int: "a 64-bit integer", float: "a finite number",
          str: "a string", dict: "an object", list: "a list", tuple: "a list"}


def _checked(key, hint, value):
    """`value` if it is a JSON value of the annotated type `hint` (an int
    passes for a float, a list becomes a tuple for a tuple field); otherwise
    ConfigError naming `key`."""
    if isinstance(hint, types.UnionType):  # `X | None`, with None last
        hint = typing.get_args(hint)[0]
        if value is None:
            return None
    kind, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if kind in (list, tuple) and type(value) is list:
        value = [_checked(f"{key}[{i}]", args[0], v) for i, v in enumerate(value)]
        return tuple(value) if kind is tuple else value
    ok = type(value) is kind or (kind is float and type(value) is int)
    if ok and kind is int:
        ok = abs(value) < 2 ** 63
    if ok and kind is float:
        ok = abs(value) <= sys.float_info.max  # false for inf and NaN
    if not ok:
        raise ConfigError(f"{key} must be {_KINDS[kind]}, got {json.dumps(value):.40}")
    return value


def _checked_section(section, fields, required_keys, where):
    """`section` once it is a JSON object whose keys are among `fields` (key
    -> annotation) and include `required_keys`, and whose values have their
    annotated types (see :func:`_checked`); otherwise ConfigError."""
    if type(section) is not dict:
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(section) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required_keys) - set(section))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return {k: _checked(f"{where}: {k}", fields[k], v) for k, v in section.items()}


def _build(cls, section, where):
    """The config dataclass `cls` built from a checked section: its fields
    are the keys, and a field without a default is required."""
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING is f.default_factory]
    return cls(**_checked_section(section, typing.get_type_hints(cls), required, where))


def _fmt(x):
    return repr(float(x))


def _output_dir(path):
    """`path` as a Path once it is a directory or could be made one: the
    nearest of it and its parents that exists must be a directory, else
    ConfigError naming it. Nothing is created, so a command checks its output
    directory before any work and still leaves none behind when it fails."""
    path = Path(path)
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output directory {path}: {nearest} is not a directory")
    return path


def _open_output(path):
    """The file `path` opened for writing; a path that cannot be opened (its
    directory missing, or a directory itself) is a ConfigError naming it."""
    try:
        return open(path, "w", newline="")
    except OSError as e:
        raise ConfigError(f"cannot write output file {path}: {e.strerror}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    cfg = load_json_config(args.config, SIMULATE_KEYS, ())
    kinds = {"cancer": (CancerSimConfig, generate_cancer_dataset),
             "semi_synthetic": (SemiSynthConfig, generate_semi_synthetic)}
    if cfg["kind"] not in kinds:
        raise ConfigError(f"unknown dataset kind {cfg['kind']!r}")
    gen_cls, generate = kinds[cfg["kind"]]
    gen_cfg = _build(gen_cls, cfg["params"], "params")
    out = _output_dir(cfg["output_dir"])
    splits = generate(gen_cfg)
    write_dataset(out, splits, gen_cfg, gen_cfg.seed)

    trajs = [tr for s in splits.values() for tr in s]
    n_obs = int(sum(tr.mask.sum() for tr in trajs))
    a_all = np.concatenate([tr.a for tr in trajs])
    y_all = np.concatenate([tr.y for tr in trajs])
    # scaled by a power of two: finite sums of squares, the same correlation bits
    a0, y0 = a_all[:, 0], np.ldexp(y_all[:, 0], -np.frexp(np.abs(y_all[:, 0]).max())[1])
    corr = np.corrcoef(a0, y0)[0, 1] if np.ptp(a0) and np.ptp(y0) else np.nan
    print(f"units: {len(trajs)}")
    print(f"observations: {n_obs}")
    print(f"treatment_frequency: {_fmt(np.mean(a_all > 0))}")
    print(f"treatment_outcome_correlation: {_fmt(corr)}")
    return 0


def cmd_train(args):
    cfg = load_json_config(args.config, TRAIN_KEYS, {"init_checkpoint"})
    model_cfg = _build(ObsNodeConfig, cfg["model"], "model")
    check_size(model_cfg)
    tcfg = _build(TrainConfig, cfg["train"], "train")
    run_dir = _output_dir(cfg["run_dir"])
    ds_dir = Path(cfg["dataset_dir"])
    if not ds_dir.exists():
        raise ConfigError(f"dataset directory not found: {ds_dir}")
    splits, _ = read_dataset(ds_dir)
    try:
        stats = zscore_fit(splits["train"])
    except DataError as e:
        raise DataError(f"train split: {e}")
    normed = {s: zscore_apply(splits[s], stats) for s in ("train", "val")}
    init_state = None
    if "init_checkpoint" in cfg:
        init, init_cfg, _ = load_model(cfg["init_checkpoint"])
        ours, theirs = dataclasses.asdict(model_cfg), dataclasses.asdict(init_cfg)
        differ = [k for k in ours if ours[k] != theirs[k]]
        if differ:
            raise ConfigError(f"model fields {differ} differ from those of the "
                              f"init_checkpoint {cfg['init_checkpoint']}")
        init_state = init.state()
    params, history = train(model_cfg, normed, tcfg, run_dir=run_dir,
                            stats=stats, init_state=init_state)
    if history:
        print(f"epochs: {len(history)}")
        print(f"best_val_loss: {_fmt(min(h['val_loss'] for h in history))}")
    print(f"run_dir: {cfg['run_dir']}")
    return 0


def cmd_evaluate(args):
    cfg = load_json_config(args.config, EVALUATE_KEYS, {"split", "heatmap"})
    ts, hs = cfg["t_c_grid"], cfg["horizons"]
    if (not ts or not hs or min(hs) <= 0 or len(set(ts)) < len(ts)
            or len(set(hs)) < len(hs)):
        raise ConfigError("t_c_grid and horizons must be nonempty lists of "
                          "distinct values, horizons positive")
    out = _output_dir(cfg["output_dir"])
    splits, _ = read_dataset(cfg["dataset_dir"])
    split = cfg.get("split", "test")
    if split not in splits:
        raise ConfigError(f"split {split!r} not present in the dataset")
    params, _, stats = load_model(cfg["checkpoint"])
    try:
        grid = rmse_grid(splits[split], cfg["t_c_grid"], cfg["horizons"],
                         params=params, stats=stats)
    except DataError as e:
        raise DataError(f"{split} split: {e}")
    if not grid.counts.any():
        times = np.concatenate([tr.times for tr in splits[split]])
        raise ConfigError(f"no observation follows any t_c_grid time within "
                          f"the horizons: the {split} records span "
                          f"[{_fmt(times.min())}, {_fmt(times.max())}]")
    out.mkdir(parents=True, exist_ok=True)
    write_grid_csv(grid, out / "rmse_grid.csv")
    mean = grid.component_mean()
    with open(out / "rmse_grid_mean.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t_c", "horizon", "rmse"])
        for i, t_c in enumerate(grid.assimilation_times):
            for k, s in enumerate(grid.horizons):
                v = mean[i, k]
                wr.writerow([_fmt(t_c), _fmt(s), "" if np.isnan(v) else _fmt(v)])
    if cfg.get("heatmap", False):
        for j in range(grid.values.shape[2]):
            write_grid_pgm(grid, out / f"rmse_component_{j}.pgm", component=j)
    print(f"grid: {out / 'rmse_grid.csv'}")
    print(f"max_rmse: {_fmt(np.nanmax(grid.values))}")
    return 0


def read_treatment_csv(path, d_a):
    """Piecewise-constant treatment path: rows start_time,component_1,...;
    an unreadable or malformed file raises DataError naming it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"treatment file not found: {path}")
    expect = ["start_time"] + [f"component_{i + 1}" for i in range(d_a)]
    try:
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [None]
        if header != expect:
            raise DataError(f"expected header {','.join(expect)}")
        rows = [row for row in rows if row]
        if not rows or any(len(row) != len(expect) for row in rows):
            raise DataError(f"expected rows of {len(expect)} values")
        arr = np.array([[float(v) for v in row] for row in rows])
        if not np.isfinite(arr).all():
            raise DataError("non-finite value")
        return ControlPath(arr[:, 0], arr[:, 1:])
    except (OSError, ValueError, csv.Error, DataError) as e:
        raise DataError(f"{path}: {e}")


def cmd_forecast(args):
    if not np.isfinite(args.t_c) or not (args.horizon is None or 0 < args.horizon < np.inf):
        raise ConfigError("--t-c must be finite, --horizon finite and positive")
    params, model_cfg, stats = load_model(args.checkpoint)
    splits, _ = read_dataset(args.dataset)
    pool = [tr for s in splits.values() for tr in s]
    unit = next((tr for tr in pool if tr.unit_id == args.unit_id), None)
    if unit is None:
        raise DataError(f"unit {args.unit_id} not found in the dataset")
    control = read_treatment_csv(args.treatments, model_cfg.d_a)
    record = stack_units([unit])
    fut = _targets(record.times, args.t_c, args.horizon)
    if fut is None:
        raise DataError("no record time at or before t_c, or no forecast times beyond t_c")
    qts = record.times[fut]
    pred = raw_forecasts(record, [(args.t_c, qts)], params, stats, control=control)[0][:, 0]

    with (_open_output(args.output) if args.output
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"component_{j + 1}"
                                    for j in range(model_cfg.d_y)])
        for t, row in zip(qts, pred):
            writer.writerow([_fmt(t)] + [_fmt(v) for v in row])
    return 0


def cmd_verify_identification(args):
    cfg = load_json_config(args.config, VERIFY_KEYS, VERIFY_KEYS)
    n, tol = cfg.get("n_instances", 200), cfg.get("tolerance", 1e-10)
    if n < 1 or tol <= 0 or cfg.get("seed", 0) < 0:
        raise ConfigError("n_instances and tolerance must be positive, seed >= 0")
    if n * QUERY_CELLS > MAX_VERIFY_CELLS:
        raise ConfigError(f"n_instances: {n} instances enumerate up to {n * QUERY_CELLS} "
                          f"joint cells, more than MAX_VERIFY_CELLS={MAX_VERIFY_CELLS}")
    rng = np.random.default_rng(cfg.get("seed", 0))
    deviations = []
    for _ in range(n):
        scm = random_observable_scm(rng)
        q = random_query(rng, scm)
        dev = float(np.max(np.abs(adjustment_estimate(scm, q)
                                  - interventional_truth(scm, q))))
        deviations.append(dev)
    _, _, _, witness = nonidentifiability_witness()
    refinement = linear_gaussian_refinement()
    report = {
        "format_version": FORMAT_VERSION,
        "n_instances": n,
        "max_deviation": max(deviations),
        "deviations": deviations,
        "witness": witness,
        "refinement_deviations": refinement,
        "pass": bool(max(deviations) < tol
                     and witness["observational_tv"] < 1e-12
                     and witness["interventional_tv"] >= 0.05
                     and witness["collapsed_adjustment_error"] < 1e-10
                     and refinement[0] > refinement[-1]),
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    if cfg.get("output"):
        with _open_output(cfg["output"]) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"max_deviation: {report['max_deviation']:.3e}")
    print("PASS" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 4


def cmd_gradcheck(args):
    """Tape gradients of the training loss against central differences for
    every parameter of small random models, all redrawn so that no zero
    output layer hides a gradient, on batches with missing entries."""
    if args.n < 1 or not 0 < args.tol < np.inf or args.seed < 0:
        raise ConfigError("--n must be >= 1, --tol finite and positive, --seed >= 0")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for trial in range(args.n):
        d_y, m, d_a, n, hidden, layers, enc = (int(rng.integers(lo, hi)) for lo, hi in (
            (1, 3), (1, 4), (0, 3), (2, 4), (2, 4), (0, 3), (2, 4)))
        cfg = ObsNodeConfig(d_y, m, d_a, hidden, layers,
                            list(ad.ACTIVATIONS)[trial % len(ad.ACTIVATIONS)], enc,
                            treatment_scale=(rng.uniform(0.5, 2.0, d_a)
                                             if rng.random() < 0.5 else None))
        params = ObsNodeParams(cfg, rng)
        params.load_state({k: rng.normal(0.0, 0.5, s) for k, s in param_shapes(cfg)})
        times = np.cumsum(rng.uniform(0.5, 1.0, 4))
        record = History(times, rng.normal(size=(4, n, d_y)),
                         rng.random((4, n, d_y)) < 0.7, rng.normal(size=(4, n, d_a)))
        t_c = times[int(rng.integers(0, 3))]
        int_cfg = IntegrationConfig(METHODS[int(rng.integers(2))], step_size=1.0)
        loss = lambda: _batch_loss(record, t_c, params, np.ones(d_y), int_cfg)
        worst = max([worst] + [grad_check(loss, t) for t in params.tensors()])
    print(f"networks: {args.n}")
    print(f"max_relative_error: {worst:.3e}")
    ok = worst < args.tol
    print("PASS" if ok else "FAIL")
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="obsnode",
                                description="Causal forecasting lab: "
                                "simulators, training, evaluation, and "
                                "identification checks.")
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn in (("simulate", cmd_simulate), ("train", cmd_train),
                     ("evaluate", cmd_evaluate)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("forecast")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--unit-id", type=int, required=True)
    sp.add_argument("--treatments", required=True)
    sp.add_argument("--t-c", type=float, required=True)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=cmd_forecast)

    sp = sub.add_parser("verify-identification")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_verify_identification)

    sp = sub.add_parser("gradcheck")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
