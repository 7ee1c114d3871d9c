"""The four workloads: input generation, set-up, the timed calls, and the
checks on their outputs.

Each workload has a main call, repeated at least twice so its outputs can be
compared, and auxiliary requests run in chunks between main calls:

- ``cancer-train`` / ``semi-train``: main = ``train()`` for a fixed number of
  epochs; aux = one validation pass (``evaluate_loss``) with the trained
  parameters.
- ``cancer-forecast``: main = one ``rmse_grid`` over the test split; aux = one
  closed-loop single-unit ``encode`` + ``forecast`` query under a hypothetical
  dose path.
- ``cohort-simulate``: main = ``cli.main`` simulate of one cohort; a
  repetition is the cancer cohort, then the semi-synthetic cohort followed
  by ``read_dataset`` and verify-identification; aux = ten identification
  instances checked through the ``identify`` functions (the first ones are
  the CLI's, then new ones from the same random stream).

``main`` and ``aux`` return ``(parts, result)``. Each part is
``(name, units, seconds)``; ``seconds`` is the part's wall time, or None for
the whole call. A call's throughput is its parts' units over their seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path
from time import perf_counter as timer

import numpy as np

from obsnode import cli
from obsnode.evaluate import rmse_grid
from obsnode.identify import (adjustment_estimate, interventional_truth,
                              random_observable_scm, random_query)
from obsnode.model import History, encode, forecast, load_model, save_model
from obsnode.odeint import ControlPath
from obsnode.simulate import (generate_cancer_dataset, generate_semi_synthetic,
                              read_dataset, write_dataset)
from obsnode.train import (evaluate_loss, train, zscore_apply, zscore_fit,
                           zscore_invert)

import configs as C

IDENTIFY_TOL = 1e-10  # the verify-identification default tolerance
# Instances per aux request of cohort-simulate. Instance sizes are drawn at
# random and their times fall in a few clusters, so the median of single
# instances jumps between clusters from seed to seed; the time of ten does not.
IDENTIFY_BATCH = 10


class CheckFailed(Exception):
    """An output of one call is wrong; the call counts as failed."""


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def all_same(items):
    return len(items) > 0 and all(x == items[0] for x in items[1:])


class Workload:
    name = ""
    main_steps = 1                 # main calls per repetition
    main_min, main_max = 2, 4      # repetitions
    aux_min = 3                    # auxiliary requests
    aux_step = 1                   # aux chunks are multiples of this
    trace_aux = 3                  # auxiliary requests in each traced pass
    main_units = aux_units = ""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed

    def prepare(self):
        """Generate the inputs from the seed (once per run, not set-up)."""

    def setup(self):
        raise NotImplementedError

    def main(self, st, i):
        raise NotImplementedError

    def aux(self, st, i):
        raise NotImplementedError

    def fingerprint(self, result):
        """Comparable form of one main-call result."""
        raise NotImplementedError

    def checks(self, main_out, aux_out, st):
        """List of (check name, passed) on the results of the calls."""
        raise NotImplementedError

    def quality(self, main_out, aux_out):
        """Output quality for the record (losses, RMSE), not a metric."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TrainWorkload(Workload):
    def __init__(self, workdir, seed, sim_cfg, generate, model_cfg, tcfg):
        super().__init__(workdir, seed)
        self.sim_cfg, self.generate = sim_cfg, generate
        self.model_cfg, self.tcfg = model_cfg, tcfg
        self.data = workdir / "data"
        self.main_units = f"train units x {tcfg.epochs} epochs per train() call"
        self.aux_units = (f"val units x {len(tcfg.val_decision_times)} decision "
                          "times per validation pass")

    def prepare(self):
        cfg = self.sim_cfg(self.seed)
        write_dataset(self.data, self.generate(cfg), cfg, cfg.seed)

    def setup(self):
        splits, _ = read_dataset(self.data)
        stats = zscore_fit(splits["train"])
        return {"stats": stats,
                "normed": {s: zscore_apply(splits[s], stats) for s in ("train", "val")}}

    def main(self, st, i):
        params, history = train(self.model_cfg, st["normed"], self.tcfg, stats=st["stats"])
        st["params"] = params
        units = self.tcfg.epochs * len(st["normed"]["train"])
        return [("train", units, None)], (history, digest(t.data for t in params.tensors()))

    def fingerprint(self, result):
        history, params_digest = result
        return json.dumps(history), params_digest

    def aux(self, st, i):
        val = st["normed"]["val"]
        loss = evaluate_loss(val, st["params"], np.ones(self.model_cfg.d_y),
                             self.tcfg.val_decision_times, self.tcfg)
        if not np.isfinite(loss):
            raise CheckFailed(f"validation loss {loss}")
        return [("validation", len(val) * len(self.tcfg.val_decision_times), None)], loss

    def checks(self, main_out, aux_out, st):
        hists = [h for h, _ in main_out]
        best = [min(r["val_loss"] for r in h) for h in hists]
        return [
            ("val_loss finite", all(np.isfinite(b) for b in best)),
            ("loss history identical across train() calls", all_same(hists)),
            ("parameter digest identical across train() calls",
             all_same([d for _, d in main_out])),
            ("validation pass repeats and reproduces the best val_loss",
             all_same(aux_out + best[:1])),
        ]

    def quality(self, main_out, aux_out):
        h = main_out[0][0]
        return {"val_loss": min(r["val_loss"] for r in h),
                "train_loss_last": h[-1]["train_loss"]}


class CancerTrain(TrainWorkload):
    name = "cancer-train"
    main_min, main_max = 3, 8
    aux_min, trace_aux = 3, 2

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed, C.cancer_sim, generate_cancer_dataset,
                         C.CANCER_MODEL, C.CANCER_TRAIN)


class SemiTrain(TrainWorkload):
    name = "semi-train"
    main_min, main_max = 3, 16
    aux_min, trace_aux = 21, 20

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed, C.semi_sim, generate_semi_synthetic,
                         C.SEMI_MODEL, C.SEMI_TRAIN)


# ---------------------------------------------------------------------------
# Forecasting
# ---------------------------------------------------------------------------

CKPT_EPOCHS = 1
QUERY_HORIZON = 120.0
N_QUERY_SCHEDULES = 110
CYCLE_STARTS = np.arange(C.CANCER_SIM["n_cycles"]) * 30.0


def query(params, stats, unit, t_c, schedule):
    """Forecast one unit from its history up to t_c under a dose schedule
    (one row per cycle), in raw outcome units."""
    past = unit.times <= t_c + 1e-9
    y = zscore_apply([unit], stats)[0].y
    hist = History(unit.times[past], y[past][:, None, :],
                   unit.mask[past][:, None, :], unit.a[past][:, None, :])
    state = encode(hist, params)
    fut = (unit.times > t_c + 1e-9) & (unit.times <= t_c + QUERY_HORIZON + 1e-9)
    preds = forecast(state, ControlPath(CYCLE_STARTS, schedule), list(unit.times[fut]),
                     params, C.CANCER_INT)
    return zscore_invert(np.stack([p.data[0] for p in preds]), stats)


class CancerForecast(Workload):
    name = "cancer-forecast"
    main_min, main_max = 3, 4
    aux_min, aux_step, trace_aux = 110, 11, 22
    main_units = "test units x 11 assimilation times per rmse_grid call"
    aux_units = "single-unit queries"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.data = workdir / "data"
        self.ckpt = workdir / "checkpoint.json"

    def prepare(self):
        cfg = C.cancer_sim(self.seed)
        splits = generate_cancer_dataset(cfg)
        write_dataset(self.data, splits, cfg, cfg.seed)
        stats = zscore_fit(splits["train"])
        normed = {s: zscore_apply(splits[s], stats) for s in ("train", "val")}
        params, _ = train(C.CANCER_MODEL, normed, replace(C.CANCER_TRAIN, epochs=CKPT_EPOCHS),
                          stats=stats)
        save_model(self.ckpt, params, norm_stats=stats)
        rng = np.random.default_rng(self.seed)
        self.unit_order = rng.permutation(len(splits["test"]))
        self.schedules = np.stack(
            [rng.uniform(0.0, 14.0, size=(N_QUERY_SCHEDULES, len(CYCLE_STARTS))),
             rng.uniform(0.0, 3.0, size=(N_QUERY_SCHEDULES, len(CYCLE_STARTS)))], axis=2)

    def setup(self):
        splits, _ = read_dataset(self.data)
        params, _, stats = load_model(self.ckpt)
        return {"test": splits["test"], "params": params, "stats": stats}

    def main(self, st, i):
        grid = rmse_grid(st["test"], C.CANCER_TC_GRID, C.CANCER_HORIZONS,
                         params=st["params"], stats=st["stats"], int_cfg=C.CANCER_INT)
        return [("grid", len(st["test"]) * len(C.CANCER_TC_GRID), None)], grid

    def _query(self, st, i):
        unit = st["test"][self.unit_order[i % len(self.unit_order)]]
        t_c = C.CANCER_TC_GRID[i % len(C.CANCER_TC_GRID)]
        return query(st["params"], st["stats"], unit, t_c,
                     self.schedules[i % N_QUERY_SCHEDULES])

    def aux(self, st, i):
        pred = self._query(st, i)
        if pred.size == 0 or not np.all(np.isfinite(pred)):
            raise CheckFailed(f"query {i}: empty or non-finite prediction")
        return [("query", 1, None)], pred

    def fingerprint(self, grid):
        return digest([grid.values, grid.counts])

    def checks(self, main_out, aux_out, st):
        grids = [self.fingerprint(g) for g in main_out]
        g = main_out[0]
        present = g.counts > 0
        ok_grid = bool(np.all(np.isfinite(g.values[present]))
                       and np.all(np.isnan(g.values[~present])))
        repeat = len(aux_out) > 0 and np.array_equal(self._query(st, 0), aux_out[0])
        return [
            ("grid finite wherever a bin has points", ok_grid),
            ("grid identical across rmse_grid calls", all_same(grids)),
            ("a repeated query gives identical predictions", bool(repeat)),
        ]

    def quality(self, main_out, aux_out):
        g = main_out[0]
        return {"grid_rmse": float(np.mean(g.values[g.counts > 0]))}


# ---------------------------------------------------------------------------
# Simulation and identification through the CLI
# ---------------------------------------------------------------------------

def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"obsnode {' '.join(argv[:1])} exited with {code}")
    return out.getvalue()


def tree_digest(paths):
    h = hashlib.sha256()
    for root in paths:
        files = sorted(p for p in Path(root).rglob("*") if p.is_file()) \
            if Path(root).is_dir() else [Path(root)]
        for p in files:
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def identify_batch(rng):
    """Draw IDENTIFY_BATCH instances and queries from `rng` as
    verify-identification does; for each, the largest deviation of the
    adjustment estimate from the truth."""
    devs = []
    for _ in range(IDENTIFY_BATCH):
        scm = random_observable_scm(rng)
        q = random_query(rng, scm)
        devs.append(float(np.max(np.abs(adjustment_estimate(scm, q)
                                        - interventional_truth(scm, q)))))
    return devs


class CohortSimulate(Workload):
    name = "cohort-simulate"
    main_steps = 2
    main_min, main_max = 2, 2
    # the CLI's instances and as many new ones, in chunks of half that count
    aux_min = 2 * C.N_IDENTIFY // IDENTIFY_BATCH
    aux_step = C.N_IDENTIFY // 2 // IDENTIFY_BATCH
    trace_aux = C.N_IDENTIFY // IDENTIFY_BATCH
    main_units = "units simulated and written per simulate command (300)"
    aux_units = "identification instances"

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.out = workdir / "sim"

    def setup(self):
        self.out.mkdir(parents=True, exist_ok=True)
        cfgs = {
            "cancer": {"format_version": 1, "kind": "cancer",
                       "output_dir": str(self.out / "cancer"),
                       "params": dict(C.CANCER_SIM, seed=self.seed)},
            "semi": {"format_version": 1, "kind": "semi_synthetic",
                     "output_dir": str(self.out / "semi"),
                     "params": dict(C.SEMI_SIM, seed=self.seed)},
            "verify": {"format_version": 1, "n_instances": C.N_IDENTIFY,
                       "seed": self.seed, "output": str(self.out / "report.json")},
        }
        paths = {}
        for key, cfg in cfgs.items():
            paths[key] = self.out / f"{key}.json"
            paths[key].write_text(json.dumps(cfg))
        return {"configs": paths, "seconds": []}

    def main(self, st, i):
        cfg = st["configs"]
        kind = ("cancer", "semi")[i % 2]
        t = timer()
        run_cli(["simulate", "--config", str(cfg[kind])])
        parts = [(f"simulate {kind}", C.SIM_UNITS[kind], timer() - t)]
        if kind == "cancer":
            return parts, None
        t = timer()
        sizes = []
        for k in ("cancer", "semi"):
            splits, _ = read_dataset(self.out / k)
            sizes.append(sum(len(s) for s in splits.values()))
        read_s = timer() - t
        t = timer()
        text = run_cli(["verify-identification", "--config", str(cfg["verify"])])
        verify_s = timer() - t
        report = json.loads((self.out / "report.json").read_text())
        st["seconds"].append({"read_dataset_s": read_s, "verify_s": verify_s})
        result = {"sizes": sizes, "pass": report["pass"] and text.strip().endswith("PASS"),
                  "max_deviation": report["max_deviation"],
                  "deviations": report["deviations"],
                  "bytes": tree_digest([self.out / "cancer", self.out / "semi",
                                        self.out / "report.json"])}
        if sizes != [C.SIM_UNITS["cancer"], C.SIM_UNITS["semi"]]:
            raise CheckFailed(f"read_dataset returned {sizes} units")
        if not result["pass"]:
            raise CheckFailed("verify-identification did not report PASS")
        return parts, result

    def aux(self, st, i):
        # One random stream for the whole run: the first N_IDENTIFY instances
        # are the CLI's, the later ones are new.
        if i == 0:
            st["rng"] = np.random.default_rng(self.seed)
        devs = identify_batch(st["rng"])
        if not max(devs) < IDENTIFY_TOL:
            raise CheckFailed(f"request {i}: deviation {max(devs):.3e}")
        return [(f"request {i}", IDENTIFY_BATCH, None)], devs

    def fingerprint(self, result):
        return result["bytes"]

    def checks(self, main_out, aux_out, st):
        n = C.N_IDENTIFY
        devs = [d for batch in aux_out for d in batch]
        return [
            ("dataset and report bytes identical across reruns",
             all_same([self.fingerprint(r) for r in main_out])),
            ("identify functions reproduce the CLI's deviations",
             len(devs) >= n and devs[:n] == main_out[0]["deviations"]),
            ("a repeated request gives identical deviations",
             identify_batch(np.random.default_rng(self.seed)) == aux_out[0]),
        ]

    def quality(self, main_out, aux_out):
        return {"identify_max_deviation": main_out[0]["max_deviation"]}


WORKLOADS = {w.name: w for w in (CancerTrain, SemiTrain, CancerForecast, CohortSimulate)}
