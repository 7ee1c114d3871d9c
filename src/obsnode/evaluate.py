"""Held-out evaluation: scaled RMSE over assimilation times and horizons.

The grid protocol: encode each test unit's history up to an assimilation time
t_c, forecast under the factual recorded treatments, and report RMSE per
horizon bin and component, divided by the per-component test-set standard
deviation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import History, NormStats, decision_split, emissions, rollouts
from .odeint import ControlPath, IntegrationConfig
from .train import _fit_stats, stack_units, zscore_invert, zscore_outcomes


@dataclass
class RmseGrid:
    assimilation_times: np.ndarray   # (n_tc,)
    horizons: np.ndarray             # (n_s,)
    values: np.ndarray               # (n_tc, n_s, d_y); NaN marks absent bins
    counts: np.ndarray               # (n_tc, n_s, d_y) observed points per bin

    def component_mean(self):
        """Mean over components per cell, ignoring absent entries (as
        np.nanmean does); NaN for a cell with no entry."""
        n = np.sum(~np.isnan(self.values), axis=2)
        return np.where(n > 0, np.nansum(self.values, axis=2) / np.maximum(n, 1), np.nan)


def raw_forecasts(record: History, decisions, params, stats: NormStats,
                  int_cfg: IntegrationConfig, control: ControlPath | None = None):
    """:func:`~obsnode.model.rollouts` in raw outcome units: normalize the
    record's observed outcomes with `stats` once, forecast, observe through
    :func:`~obsnode.model.emissions` and invert the normalization. Returns,
    per index pair (k, j) of `decisions`, a (j - k, n, d_y) array."""
    record = History(record.times, zscore_outcomes(record.y, record.mask, stats),
                     record.mask, record.a)
    return [zscore_invert(emissions(states, params.cfg.d_y).data, stats)
            for states in rollouts(record, decisions, params, int_cfg, control)]


def _binned_rmse(record: History, k, j, pred, t_c, horizons, scale):
    """Scaled RMSE and observed-point counts per (horizon bin, component) of
    the predictions `pred` at the record's targets times[k:j] of a decision
    at t_c; the bin for s_b collects the targets in (t_c + s_{b-1}, t_c + s_b],
    which end where :func:`~obsnode.model.decision_split` at horizon s_b ends."""
    mask = record.mask[k:j]
    err2 = (pred - record.y[k:j]) ** 2 * mask
    edges = [(decision_split(record.times, t_c, s) or (k, k))[1] - k for s in horizons]
    values = np.full((horizons.size, mask.shape[2]), np.nan)
    counts = np.zeros(values.shape, dtype=int)
    for b, (lo, hi) in enumerate(zip([0] + edges[:-1], edges)):
        c = counts[b] = mask[lo:hi].sum(axis=(0, 1))
        for d in np.flatnonzero(c):
            values[b, d] = np.sqrt(err2[lo:hi, :, d].sum() / c[d]) / scale[d]
    return values, counts


def rmse_grid(test_trajs, t_c_grid, horizons, params, stats: NormStats,
              int_cfg: IntegrationConfig) -> RmseGrid:
    """Scaled RMSE per (assimilation time, horizon bin, component) of the
    forecasts of :func:`raw_forecasts`, all from one encoder pass over the
    record, binned by :func:`_binned_rmse`; the RMSE scale is the split's
    own :func:`~obsnode.train.zscore_fit` std."""
    horizons = np.sort(np.asarray(horizons, dtype=np.float64))
    t_c_grid = np.sort(np.asarray(t_c_grid, dtype=np.float64))

    record = stack_units(test_trajs)
    d_y = record.y.shape[2]
    scale = _fit_stats(record).std

    values = np.full((t_c_grid.size, horizons.size, d_y), np.nan)
    counts = np.zeros((t_c_grid.size, horizons.size, d_y), dtype=int)
    scored = [(i, float(t_c), pair) for i, t_c in enumerate(t_c_grid)
              if (pair := decision_split(record.times, t_c, horizons[-1])) is not None]
    preds = raw_forecasts(record, [pair for _, _, pair in scored], params, stats, int_cfg)
    for (i, t_c, (k, j)), pred in zip(scored, preds):
        values[i], counts[i] = _binned_rmse(record, k, j, pred, t_c, horizons, scale)
    return RmseGrid(t_c_grid, horizons, values, counts)


def write_grid_csvs(grid: RmseGrid, out):
    """Write rmse_grid.csv, a row per cell and component with its point count,
    and rmse_grid_mean.csv, a row per cell (:meth:`RmseGrid.component_mean`),
    to the directory `out` (a Path); an absent entry is an empty field."""
    mean = grid.component_mean()
    fmt = lambda v: "" if np.isnan(v) else repr(float(v))
    with (open(out / "rmse_grid.csv", "w", newline="") as fh,
          open(out / "rmse_grid_mean.csv", "w", newline="") as fm):
        wr, wm = csv.writer(fh), csv.writer(fm)
        wr.writerow(["t_c", "horizon", "component", "rmse", "n_points"])
        wm.writerow(["t_c", "horizon", "rmse"])
        for i, t_c in enumerate(grid.assimilation_times):
            for k, s in enumerate(grid.horizons):
                cell = [repr(float(t_c)), repr(float(s))]
                wm.writerow(cell + [fmt(mean[i, k])])
                for j in range(grid.values.shape[2]):
                    wr.writerow(cell + [j, fmt(grid.values[i, k, j]), int(grid.counts[i, k, j])])


def write_grid_pgm(grid: RmseGrid, path, component):
    """ASCII PGM heatmap of one component: rows are horizons from largest
    (top) to smallest, columns are assimilation times ascending; white = RMSE
    0, black = RMSE >= 1, absent bins black."""
    img = np.clip(grid.values[:, :, component], 0.0, 1.0)
    img = np.where(np.isnan(img), 1.0, img)
    pix = np.round(255 * (1.0 - img)).astype(int).T[::-1]
    with open(path, "w") as fh:
        fh.write(f"P2\n{pix.shape[1]} {pix.shape[0]}\n255\n")
        for row in pix:
            fh.write(" ".join(str(v) for v in row) + "\n")

