"""A golden master of the program's outputs: one fixed run set, digested.

Run from the repository root:

    python3 tests/contract.py --out FILE       # run the set; write FILE and FILE.npz
    python3 tests/contract.py --compare A B    # two files that --out wrote
    python3 tests/contract.py --reach          # src/ statements the run set never executes

``--out`` runs the run set with the obsnode of this checkout (its ``src/``
goes first on ``sys.path``), in a temporary working directory, every path
relative to it so that nothing of the directory's name reaches an output.
FILE is JSON: the sha256 of each artifact (every file a command writes, by
its path in the workspace), and of each command its exit code and the
sha256 of its stdout and of its stderr. FILE.npz keeps the numbers of each
output as one float64 vector: those in an artifact's text or a stdout, in
order, and each parameter's gradient on one taped training batch, at one
decision and at three in lockstep.

``--compare`` prints each output of A and B, with "identical" or the
largest absolute difference of its numbers relative to the largest
magnitude among them, and exits 1 unless every output is identical.

``--reach`` runs the run set under ``sys.settrace`` and prints, for each
function in ``src/obsnode`` with a statement that no command executed, the
first line of each such statement, or "never called". A statement counts
as executed when any line of it runs (of a compound statement, its header
lines); ``try:`` headers, which run nothing, and the body of a lambda,
which shares its line with the statement around it, are not told apart.

The run set:

- ``simulate`` of both kinds, 30 patients each;
- ``train`` for 3 epochs on both cohorts; on each trained model,
  ``evaluate`` with heatmaps, and ``forecast`` to a file and to stdout;
- ``verify-identification`` at the default config, and at 300 instances
  for seeds 0-3;
- ``gradcheck --n 3``;
- the benchmark's acceptance configs, copied here (the benchmark is not
  imported): both cohorts at 90 patients, ``train`` for 2 epochs, the
  cancer model's RMSE grid, and the per-parameter gradients of one taped
  batch on each trained model, at one decision and at three in lockstep.

``run_set(quick=True)`` is a smaller set of the same commands, for the tests.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

CANCER_SIM = {"n_cycles": 12, "dt": 0.25, "gamma": 4.0, "obs_every": 6.0}
CANCER_MODEL = {"d_y": 2, "m": 2, "d_a": 2, "phi_hidden_dim": 48, "phi_layers": 2,
                "encoder_hidden_dim": 48, "treatment_scale": [14.0, 3.0]}
CANCER_TRAIN = {"batch_size": 25, "learning_rate": 1e-3,
                "decision_time_grid": [30.0 * k for k in range(1, 12)], "t_f": 360.0,
                "seed": 0, "int_step": 3.0, "max_grad_norm": 1.0,
                "val_decision_times": [90.0, 150.0, 240.0]}
CANCER_GRID = {"t_c_grid": [30.0 * k for k in range(1, 12)],
               "horizons": [30.0 * k for k in range(1, 7)]}
SEMI_MODEL = {"d_y": 2, "m": 2, "d_a": 2, "phi_hidden_dim": 64, "phi_layers": 2,
              "encoder_hidden_dim": 64}
SEMI_TRAIN = {"batch_size": 25, "learning_rate": 1e-3,
              "decision_time_grid": [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 12.0,
                                     20.0, 32.0],
              "t_f": 72.0, "seed": 0, "int_step": 0.5, "max_grad_norm": 1.0,
              "max_horizon": 3.0, "val_decision_times": [1.0]}
SEMI_GRID = {"t_c_grid": [6.0, 24.0, 48.0], "horizons": [1.0, 3.0, 6.0]}

# (name, kind, model, train, evaluation grid, forecast t_c and horizon)
COHORTS = (("cancer", "cancer", CANCER_MODEL, CANCER_TRAIN, CANCER_GRID, (150.0, 120.0)),
           ("semi", "semi_synthetic", SEMI_MODEL, SEMI_TRAIN, SEMI_GRID, (24.0, 6.0)))
# a number starts where no letter, digit, "_" or "." precedes it, so the
# digits inside a name (rk4, phi0.W0, component_1) are not read as numbers
NUMBER = re.compile(rb"(?<![A-Za-z0-9_.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    rb"|(?:nan|NaN|inf|Infinity)\b)")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numbers(data: bytes) -> np.ndarray:
    """The numbers in a text, in order, as floats."""
    return np.array([float(m.group().replace(b"Infinity", b"inf"))
                     for m in NUMBER.finditer(data)], dtype=np.float64)


class Workspace:
    """Runs commands through ``cli.main`` in the current directory and
    collects what they print and write."""

    def __init__(self):
        from obsnode import cli
        self.cli = cli
        self.commands, self.arrays = {}, {}

    def json(self, path, doc):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({"format_version": 1, **doc}))
        return str(path)

    def run(self, name, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(map(str, argv)))
        stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
        self.commands[name] = {"exit": code, "stdout": sha(stdout), "stderr": sha(stderr)}
        self.arrays[f"{name} [stdout]"] = numbers(stdout)

    def artifacts(self):
        """{path: sha256} of every file in the workspace but the inputs the
        run set wrote itself."""
        found = {}
        for path in sorted(Path(".").rglob("*")):
            if path.is_file() and path.parts[0] != "in":
                data = path.read_bytes()
                found[path.as_posix()] = sha(data)
                self.arrays[path.as_posix()] = numbers(data)
        return found


def batch_gradients(ws, name, run_dir, data_dir, train_cfg, batch_size, lockstep=False):
    """Each checkpoint entry's gradient of the loss of one taped training
    batch on the trained model: its first `batch_size` train units, at the
    middle decision time of the grid, or with `lockstep`, the sum of the
    losses at the first, middle and last, scored from one taped rollouts
    call by `train._losses`. None when training wrote no model, and none,
    with a note on stderr, when the checkout predates the decisions as index
    pairs (a `train._batch_loss(record, k, j, ...)` and the `train._decisions`
    that returns its pairs) or, with `lockstep`, has no `train._losses`: its
    rollouts takes one decision under a tape."""
    from obsnode import train
    if "k" not in inspect.signature(getattr(train, "_batch_loss", lambda: None)).parameters:
        print(f"contract: gradients of {name} absent: this checkout's train has no "
              "_batch_loss(record, k, j, ...)", file=sys.stderr)
        return {}
    if lockstep and not hasattr(train, "_losses"):
        print(f"contract: lockstep gradients of {name} absent: this checkout's train has no "
              "_losses(record, pairs, ...), as its rollouts takes one decision under a tape",
              file=sys.stderr)
        return {}
    from obsnode import autodiff as ad
    from obsnode.autodiff import Tape
    from obsnode.model import load_model, param_shapes
    from obsnode.simulate import read_dataset
    from obsnode.train import TrainConfig, _batch_loss, _decisions, stack_units, zscore_apply

    if not (Path(run_dir) / "checkpoint.json").exists():
        return {}
    params, cfg, stats = load_model(Path(run_dir) / "checkpoint.json")
    splits, _ = read_dataset(data_dir)
    record = stack_units(zscore_apply(splits["train"][:batch_size], stats))
    tcfg = TrainConfig(**train_cfg)
    pairs = _decisions(record.times, tcfg.decision_time_grid, tcfg, "train")
    # a checkout whose checkpoint keeps no step: _decisions returns it with the pairs
    pairs, int_cfg = pairs if isinstance(pairs, tuple) else (pairs, params.int_cfg)
    k, j = pairs[len(pairs) // 2]
    with Tape() as tape:
        if lockstep:
            picks = [pairs[0], (k, j), pairs[-1]]
            losses = train._losses(record, picks, params, np.ones(cfg.d_y), int_cfg)
            # their sum as one node, not autodiff.add: the run set runs with every op refused
            loss = ad._record(ad.Tensor(sum(float(x.data) for x in losses)), losses,
                              lambda g: [ad._accum(x, g) for x in losses])
        else:
            loss = _batch_loss(record, k, j, params, np.ones(cfg.d_y), int_cfg)
        tape.backward(loss)
    prefix = "lockstep " if lockstep else ""
    flat = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.reshape(-1)
                           for t in params.tensors()])
    digests = {}
    for (entry, shape), ix in zip(param_shapes(cfg), params.parts):
        g = np.ascontiguousarray(flat[ix].reshape(shape))
        key = f"{prefix}gradient:{name}:{entry}"
        digests[key] = sha(g.tobytes())
        ws.arrays[key] = g.reshape(-1)
    ws.arrays[f"{prefix}loss:{name}"] = np.array([float(loss.data)])
    digests[f"{prefix}loss:{name}"] = sha(np.float64(loss.data).tobytes())
    return digests


def run_set(quick=False):
    """(report, arrays) of the run set, run in the current directory."""
    ws = Workspace()
    n_sim, epochs, n_bench, bench_epochs = (6, 1, 12, 1) if quick else (30, 3, 90, 2)
    for name, kind, model, train_cfg, grid, (t_c, horizon) in COHORTS:
        sim = {"n_patients": n_sim, "seed": 0, **(CANCER_SIM if kind == "cancer" else {})}
        data = f"data/{name}"
        ws.run(f"simulate {name}", "simulate", "--config", ws.json(
            f"in/simulate_{name}.json", {"kind": kind, "output_dir": data, "params": sim}))
        run_dir = f"runs/{name}"
        ws.run(f"train {name}", "train", "--config", ws.json(f"in/train_{name}.json", {
            "dataset_dir": data, "run_dir": run_dir, "model": model,
            "train": {**train_cfg, "epochs": epochs}}))
        ws.run(f"evaluate {name}", "evaluate", "--config", ws.json(f"in/evaluate_{name}.json", {
            "dataset_dir": data, "checkpoint": f"{run_dir}/checkpoint.json",
            "output_dir": f"eval/{name}", "heatmap": True, **grid}))
        treatments = Path(f"in/treatments_{name}.csv")
        treatments.write_text("start_time,component_1,component_2\n0.0,1.0,0.0\n"
                              f"{t_c + horizon / 3},0.0,1.0\n")
        unit = "1" if quick else "3"
        forecast = ["forecast", "--checkpoint", f"{run_dir}/checkpoint.json", "--dataset", data,
                    "--unit-id", unit, "--treatments", treatments, "--t-c", t_c,
                    "--horizon", horizon]
        Path("forecast").mkdir(exist_ok=True)
        ws.run(f"forecast {name} to a file", *forecast, "--output", f"forecast/{name}.csv")
        ws.run(f"forecast {name} to stdout", *forecast)
    for seed in range(1 if quick else 4):
        ws.run(f"verify-identification seed {seed}", "verify-identification", "--config",
               ws.json(f"in/verify_{seed}.json", {"n_instances": 20 if quick else 300,
                                                  "seed": seed}))
    if not quick:
        ws.run("verify-identification default", "verify-identification", "--config",
               ws.json("in/verify_default.json", {}))
    ws.run("gradcheck", "gradcheck", "--n", 1 if quick else 3)
    gradients = {}
    for name, kind, model, train_cfg, grid, _ in COHORTS:
        sim = {"n_patients": n_bench, "seed": 0, **(CANCER_SIM if kind == "cancer" else {})}
        data, run_dir = f"bench/data/{name}", f"bench/runs/{name}"
        ws.run(f"bench simulate {name}", "simulate", "--config", ws.json(
            f"in/bench_simulate_{name}.json", {"kind": kind, "output_dir": data, "params": sim}))
        ws.run(f"bench train {name}", "train", "--config", ws.json(f"in/bench_train_{name}.json", {
            "dataset_dir": data, "run_dir": run_dir, "model": model,
            "train": {**train_cfg, "epochs": bench_epochs}}))
        if kind == "cancer":
            ws.run(f"bench evaluate {name}", "evaluate", "--config", ws.json(
                f"in/bench_evaluate_{name}.json", {"dataset_dir": data, "split": "test",
                                                   "checkpoint": f"{run_dir}/checkpoint.json",
                                                   "output_dir": f"bench/eval/{name}", **grid}))
        for lockstep in (False, True):
            gradients.update(batch_gradients(ws, name, run_dir, data, train_cfg,
                                             train_cfg["batch_size"], lockstep))
    report = {"commands": ws.commands, "artifacts": ws.artifacts(), "gradients": gradients}
    return report, ws.arrays


def run_in_temp(quick=False):
    """:func:`run_set` in a new temporary directory, which is removed after."""
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return run_set(quick)
        finally:
            os.chdir(cwd)


def outputs(report):
    """{output: digest} of a report, command fields included."""
    flat = {}
    for name, fields in report["commands"].items():
        flat.update({f"{name} [{k}]": v for k, v in fields.items()})
    flat.update(report["artifacts"])
    flat.update(report["gradients"])
    return flat


def load_arrays(path):
    with np.load(path) as npz:
        return {key: npz[key] for key in npz.files}


def compare(a_path, b_path):
    """Lines of "output: identical" or its largest relative difference, and
    whether every output is identical."""
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    na, nb = (load_arrays(f"{p}.npz") for p in (a_path, b_path))
    fa, fb = outputs(a), outputs(b)
    lines, same = [], True
    for out in sorted(set(fa) | set(fb)):
        if out not in fa or out not in fb:
            lines.append(f"{out}: only in {a_path if out in fa else b_path}")
            same = False
            continue
        if fa[out] == fb[out]:
            lines.append(f"{out}: identical")
            continue
        same = False
        if out not in na or out not in nb:
            lines.append(f"{out}: differs ({fa[out]} != {fb[out]})")
            continue
        x, y = na[out], nb[out]
        if x.shape != y.shape:
            lines.append(f"{out}: differs: {x.size} numbers against {y.size}")
            continue
        both = np.isnan(x) & np.isnan(y)
        if np.array_equal(x[~both], y[~both]):
            lines.append(f"{out}: differs in text only; its numbers are equal")
            continue
        scale = np.max(np.abs(np.concatenate([x[~both], y[~both]])))
        diff = np.max(np.abs(x[~both] - y[~both]))
        lines.append(f"{out}: largest relative difference {diff / scale:.3e}")
    return lines, same


def function_statements(tree):
    """{qualified name: [(first, last) line of each statement]} of the
    functions of a module's syntax tree. A statement of a nested function
    belongs to that function; a compound statement spans its header, up to
    its first inner statement; docstrings, `try` statements and the
    statements of class and module bodies, which run no line of their own
    or run on import, are left out."""
    found = {}

    def walk(body, name, in_function):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{name}.{stmt.name}" if name else stmt.name
                walk(stmt.body, qualname, not isinstance(stmt, ast.ClassDef))
                continue
            inner = [s for key in ("body", "orelse", "finalbody") for s in getattr(stmt, key, [])]
            inner += [s for h in getattr(stmt, "handlers", []) for s in h.body]
            docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            if in_function and not (docstring or isinstance(stmt, ast.Try)):
                last = min(s.lineno for s in inner) - 1 if inner else stmt.end_lineno
                found.setdefault(name, []).append((stmt.lineno, max(last, stmt.lineno)))
            walk(inner, name, in_function)

    walk(tree.body, "", False)
    return found


def unexecuted(paths, run):
    """{(path, function): (the first line of each of its statements that
    did not run, its number of statements)} of the functions in the files
    `paths` that have such a statement, while `run()` runs under
    ``sys.settrace``."""
    files = {str(Path(p)) for p in paths}
    hit = set()

    def line(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename in files else None)
    try:
        run()
    finally:
        sys.settrace(None)
    missed = {}
    for path in sorted(files):
        for name, spans in function_statements(ast.parse(Path(path).read_text())).items():
            lines = [a for a, b in spans if not any((path, k) in hit for k in range(a, b + 1))]
            if lines:
                missed[path, name] = lines, len(spans)
    return missed


def reach():
    """Lines of "file function: lines ..." or "file function: never called"
    for each src/ function with a statement that the run set never runs."""
    missed = unexecuted(sorted((ROOT / "src" / "obsnode").glob("*.py")), run_in_temp)
    return [f"{Path(path).relative_to(ROOT)} {name}: "
            + ("never called" if len(lines) == n else "lines " + ", ".join(map(str, lines)))
            for (path, name), (lines, n) in missed.items()]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--out", help="run the set and write this JSON file and its .npz")
    g.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    g.add_argument("--reach", action="store_true",
                   help="list the src/ statements that the run set never executes")
    args = p.parse_args(argv)
    if args.reach:
        print("\n".join(reach()))
        return 0
    if args.compare:
        lines, same = compare(*args.compare)
        print("\n".join(lines))
        print("every output identical" if same else "outputs differ")
        return 0 if same else 1
    report, arrays = run_in_temp()
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    with open(f"{args.out}.npz", "wb") as fh:
        np.savez(fh, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
