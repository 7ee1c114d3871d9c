"""Held-out evaluation: scaled RMSE over assimilation times and horizons.

The grid protocol: encode each test unit's history up to an assimilation time
t_c, forecast under the factual recorded treatments, and report RMSE per
horizon bin and component, divided by the per-component test-set standard
deviation. A separate routine scores interventional forecasts against
noise-free re-simulations under an alternative dose path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .model import History, rollout, window
from .odeint import ControlPath, IntegrationConfig
from .simulate import (CancerSimConfig, _patient_rngs, sample_patient_params,
                       simulate_cancer_patient)
from .train import NormStats, stack_units, zscore_invert, zscore_outcomes


@dataclass
class RmseGrid:
    assimilation_times: np.ndarray   # (n_tc,)
    horizons: np.ndarray             # (n_s,)
    values: np.ndarray               # (n_tc, n_s, d_y); NaN marks absent bins
    counts: np.ndarray               # (n_tc, n_s, d_y) observed points per bin

    def __post_init__(self):
        self.assimilation_times = np.asarray(self.assimilation_times, dtype=np.float64)
        self.horizons = np.asarray(self.horizons, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.counts = np.asarray(self.counts)
        expect = (self.assimilation_times.size, self.horizons.size)
        if self.values.shape[:2] != expect or self.counts.shape != self.values.shape:
            raise DataError("RmseGrid: inconsistent dimensions")
        if np.any(self.horizons <= 0) or np.any(np.diff(self.horizons) <= 0):
            raise DataError("RmseGrid: horizons must be sorted and positive")
        if np.nanmin(self.values, initial=0.0) < 0:
            raise DataError("RmseGrid: negative value")

    def component_mean(self):
        """Mean over components per cell, ignoring absent entries (as
        np.nanmean does); NaN for a cell with no entry."""
        n = np.sum(~np.isnan(self.values), axis=2)
        return np.where(n > 0, np.nansum(self.values, axis=2) / np.maximum(n, 1), np.nan)


def raw_forecast(record: History, t_c, query_times, params,
                 stats: NormStats | None, int_cfg: IntegrationConfig | None = None,
                 control: ControlPath | None = None):
    """:func:`~obsnode.model.rollout` in raw outcome units: normalize the
    record's observed outcomes with `stats`, forecast, and invert the
    normalization. Returns a (len(query_times), n, d_y) array."""
    if stats is not None:
        record = History(record.times, zscore_outcomes(record.y, record.mask, stats),
                         record.mask, record.a)
    out = np.stack([p.data for p in rollout(record, t_c, query_times, params,
                                            int_cfg, control)])
    return zscore_invert(out, stats) if stats is not None else out


def model_predictor(params, stats: NormStats | None, int_cfg: IntegrationConfig | None):
    """Default predictor: encode the normalized history, roll the model
    forward under the factual treatments, and invert the normalization."""

    def predict(record, t_c, query_times):
        return raw_forecast(record, t_c, query_times, params, stats, int_cfg)

    return predict


def _test_scale(y, mask):
    """Per-component standard deviation of the observed entries of a stacked
    (T, n, d_y) outcome array: the divisor of every scaled RMSE."""
    mean = (y * mask).sum((0, 1)) / mask.sum((0, 1))
    return np.sqrt(((y - mean) ** 2 * mask).sum((0, 1)) / mask.sum((0, 1)))


def _binned_rmse(qts, pred, y, mask, t_c, horizons, scale):
    """Scaled RMSE and observed-point counts per (horizon bin, component) of
    predictions at times `qts`; the bin for s_k collects the points in
    (t_c + s_{k-1}, t_c + s_k]."""
    d_y = y.shape[2]
    err2 = (pred - y) ** 2 * mask
    lo = t_c + np.concatenate([[0.0], horizons[:-1]])
    hi = t_c + horizons
    values = np.full((horizons.size, d_y), np.nan)
    counts = np.zeros((horizons.size, d_y), dtype=int)
    for k in range(horizons.size):
        _, in_bin = window(qts, lo[k], hi[k])
        c = mask[in_bin].sum(axis=(0, 1))
        counts[k] = c
        for j in range(d_y):
            if c[j] > 0:
                values[k, j] = np.sqrt(err2[in_bin][:, :, j].sum() / c[j]) / scale[j]
    return values, counts


def rmse_grid(test_trajs, t_c_grid, horizons, predict=None, params=None,
              stats=None, int_cfg=None) -> RmseGrid:
    """Scaled RMSE per (assimilation time, horizon bin, component).

    `predict(record, t_c, query_times)` may be supplied directly: it gets the
    units stacked into one :class:`~obsnode.model.History` and returns raw
    predictions of shape (len(query_times), n, d_y). Otherwise it is built
    from `params` (and `stats`). The horizon bin for s_k collects observed
    points in (t_c + s_{k-1}, t_c + s_k].
    """
    horizons = np.sort(np.asarray(horizons, dtype=np.float64))
    t_c_grid = np.sort(np.asarray(t_c_grid, dtype=np.float64))
    if predict is None:
        if params is None:
            raise DataError("rmse_grid: need predict or params")
        predict = model_predictor(params, stats, int_cfg)

    record = stack_units(test_trajs)
    d_y = record.y.shape[2]
    scale = _test_scale(record.y, record.mask)

    values = np.full((t_c_grid.size, horizons.size, d_y), np.nan)
    counts = np.zeros((t_c_grid.size, horizons.size, d_y), dtype=int)
    for i, t_c in enumerate(t_c_grid):
        past, fut = window(record.times, t_c, t_c + horizons[-1])
        if not fut.any() or not past.any():
            continue
        qts = record.times[fut]
        preds = predict(record, float(t_c), qts)
        values[i], counts[i] = _binned_rmse(qts, preds, record.y[fut],
                                            record.mask[fut], t_c, horizons,
                                            scale)
    return RmseGrid(t_c_grid, horizons, values, counts)


def write_grid_csv(grid: RmseGrid, path):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t_c", "horizon", "component", "rmse", "n_points"])
        for i, t_c in enumerate(grid.assimilation_times):
            for k, s in enumerate(grid.horizons):
                for j in range(grid.values.shape[2]):
                    v = grid.values[i, k, j]
                    wr.writerow([repr(float(t_c)), repr(float(s)), j,
                                 "" if np.isnan(v) else repr(float(v)),
                                 int(grid.counts[i, k, j])])


def read_grid_csv(path) -> RmseGrid:
    rows = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != ["t_c", "horizon", "component", "rmse", "n_points"]:
            raise DataError(f"unexpected grid header: {header}")
        for row in rd:
            rows.append((float(row[0]), float(row[1]), int(row[2]),
                         np.nan if row[3] == "" else float(row[3]), int(row[4])))
    tcs = sorted({r[0] for r in rows})
    hs = sorted({r[1] for r in rows})
    d_y = max(r[2] for r in rows) + 1
    values = np.full((len(tcs), len(hs), d_y), np.nan)
    counts = np.zeros((len(tcs), len(hs), d_y), dtype=int)
    for tc, s, j, v, c in rows:
        values[tcs.index(tc), hs.index(s), j] = v
        counts[tcs.index(tc), hs.index(s), j] = c
    return RmseGrid(np.array(tcs), np.array(hs), values, counts)


def write_grid_pgm(grid: RmseGrid, path, component=0, cap: float = 1.0):
    """ASCII PGM heatmap: rows are horizons from largest (top) to smallest,
    columns are assimilation times ascending; white = RMSE 0, black = >= cap,
    absent bins black."""
    vals = (grid.component_mean() if component is None
            else grid.values[:, :, component])
    img = np.clip(vals / cap, 0.0, 1.0)
    img = np.where(np.isnan(img), 1.0, img)
    pix = np.round(255 * (1.0 - img)).astype(int).T[::-1]
    with open(path, "w") as fh:
        fh.write(f"P2\n{pix.shape[1]} {pix.shape[0]}\n255\n")
        for row in pix:
            fh.write(" ".join(str(v) for v in row) + "\n")


def counterfactual_rmse(params, stats, sim_config: CancerSimConfig, unit_ids,
                        schedule_fn, t_c, horizons, int_cfg=None) -> RmseGrid:
    """Interventional check against the simulator.

    For each patient: simulate the factual noisy record, derive an
    alternative dose schedule via `schedule_fn(factual_schedule)`, re-simulate
    with noise off under that schedule for the ground truth, and score the
    model forecast (encoded from the factual history up to t_c, rolled out
    under the alternative doses).
    """
    horizons = np.sort(np.asarray(horizons, dtype=np.float64))
    facts, truths, scheds = [], [], []
    cf_cfg = replace(sim_config, noise=False)
    for uid in unit_ids:
        prng, nrng = _patient_rngs(sim_config.seed, uid)
        pat = sample_patient_params(prng, sim_config)
        fact = simulate_cancer_patient(pat, sim_config, nrng, unit_id=uid)
        sched = np.asarray(schedule_fn(fact.latents.copy()), dtype=np.float64)
        truth = simulate_cancer_patient(pat, cf_cfg, np.random.default_rng(0),
                                        unit_id=uid, dose_schedule=sched)
        facts.append(fact)
        truths.append(truth)
        scheds.append(sched)

    record, oracle = stack_units(facts), stack_units(truths)
    _, fut = window(record.times, t_c, t_c + horizons[-1])
    qts = record.times[fut]
    cycle_starts = np.arange(sim_config.n_cycles) * sim_config.cycle_days
    ctrl = ControlPath(cycle_starts, np.stack(scheds, axis=1))
    pred = raw_forecast(record, t_c, qts, params, stats, int_cfg, ctrl)
    scale = _test_scale(record.y, record.mask)
    values, counts = _binned_rmse(qts, pred, oracle.y[fut], oracle.mask[fut],
                                  t_c, horizons, scale)
    return RmseGrid(np.array([t_c]), horizons, values[None], counts[None])
