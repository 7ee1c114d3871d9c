"""Normalization, the masked variance-normalized loss, and the training loop.

Training is self-supervised: for each batch a decision time t_c is drawn, the
encoder sees observations up to t_c, the model forecasts the remaining record
under the factual recorded treatments, and the masked loss drives Adam. The
parameters with the best validation loss are returned.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tape, Tensor
from .errors import ConfigError, DataError, NumericError, ShapeMismatch
from .model import (History, NormStats, ObsNodeConfig, ObsNodeParams, check_dims,
                    decision_split, emissions, rollouts, save_model)
from .odeint import MAX_STEPS, IntegrationConfig, _counted_steps, grid_budget_error


def zscore_fit(trajs) -> NormStats:
    """Per-component mean/std over observed entries of the given (train) split."""
    return _fit_stats(stack_units(trajs))


def _fit_stats(record: History) -> NormStats:
    """:func:`zscore_fit` of a stacked record, summed unit by unit; DataError
    for a component with fewer than 2 observed entries or with zero spread."""
    ys = np.concatenate(record.y.swapaxes(0, 1))  # unit by unit, (n T, d_y)
    ms = np.concatenate(record.mask.swapaxes(0, 1))
    counts = ms.sum(0)
    if np.any(counts < 2):
        raise DataError(f"component {int(np.argmin(counts))}: fewer than 2 observations")
    mean = (ys * ms).sum(0) / counts
    var = (((ys - mean) ** 2) * ms).sum(0) / counts
    return NormStats(mean=mean, std=np.sqrt(var))


def zscore_outcomes(y, mask, stats: NormStats):
    """Normalize the observed entries of an outcome array; unobserved entries
    pass through unchanged."""
    if y.shape[-1] != stats.mean.size:
        raise DataError(f"records with d_y={y.shape[-1]}, statistics with d_y="
                        f"{stats.mean.size}")
    return np.where(mask > 0, (y - stats.mean) / stats.std, y)


def zscore_apply(trajs, stats: NormStats):
    """Normalize observed outcome entries; treatments are left untouched."""
    return [replace(tr, y=zscore_outcomes(tr.y, tr.mask, stats)) for tr in trajs]


def zscore_invert(y, stats: NormStats):
    return np.asarray(y) * stats.std + stats.mean


def stack_units(trajs) -> History:
    """The units' records stacked into one batched :class:`History` on their
    shared time grid, in one array pass per field. Only a split that fails
    the pass is walked unit by unit, so the first unit in list order off the
    first unit's grid or widths names the DataError."""
    if not trajs:
        raise DataError("stack_units: empty split")
    first, ragged = trajs[0], None
    try:
        grids, y, mask, a = (np.array([getattr(tr, f) for tr in trajs])
                             for f in ("times", "y", "mask", "a"))
    except ValueError as e:  # a unit's grid or a field's shape differs
        ragged = e
    if ragged or not (grids == first.times).all():  # (n, T) against (T,)
        for tr in trajs[1:]:
            if tr.times.shape != first.times.shape or np.any(tr.times != first.times):
                raise DataError("stack_units: units must share one time grid")
            if tr.y.shape[1] != first.y.shape[1] or tr.a.shape[1] != first.a.shape[1]:
                raise DataError(f"stack_units: (d_y, d_a) of unit {tr.unit_id} "
                                f"{tr.y.shape[1], tr.a.shape[1]} != unit {first.unit_id} "
                                f"{first.y.shape[1], first.a.shape[1]}")
        if ragged:
            raise ragged
    return History(first.times, *(v.swapaxes(0, 1).copy() for v in (y, mask, a)))


def masked_loss(pred, y, mask, sigma2):
    """Variance-normalized masked squared error.

    pred: Tensor (T, n, d_y); y, mask: arrays of the same shape; sigma2: per
    component variances (d_y,). Each (unit, component) pair is averaged over
    its own observed count, scaled by 1/(n sigma_j^2), and pairs with no
    observations contribute zero. One tape node, whose value and gradient
    round as those of the graph of sub, square, hadamard and tsum.
    """
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if pred.data.shape != y.shape or y.shape != mask.shape:
        raise ShapeMismatch("masked_loss", pred.data.shape, y.shape, mask.shape)
    T, n, d_y = y.shape
    counts = mask.sum(axis=0)  # (n, d_y)
    denom = n * sigma2 * np.where(counts > 0, counts, 1.0)
    weights = mask / denom
    err = pred.data - y
    loss = Tensor(np.sum(err * err * weights))
    ad._check_finite("masked_loss", loss.data)
    return ad._record(loss, (pred,), lambda g: ad._accum(pred, g * weights * 2.0 * err))


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    epochs: int = 20
    decision_time_grid: list[float] = field(default_factory=list)
    t_f: float = 0.0
    seed: int = 0
    max_grad_norm: float | None = None
    int_step: float | None = None  # default: a quarter of the grid spacing
    val_decision_times: list[float] | None = None
    max_horizon: float | None = None  # None: forecast to the record end

    def __post_init__(self):
        if not self.decision_time_grid:
            raise ConfigError("decision_time_grid must be nonempty")
        if not np.isfinite([*self.decision_time_grid, *(self.val_decision_times or ()),
                            self.t_f]).all():
            raise ConfigError("decision times and t_f must be finite")
        if any(t >= self.t_f for t in self.decision_time_grid):
            raise ConfigError("decision times must be < t_f")
        if (self.batch_size < 1 or self.epochs < 0 or self.seed < 0
                or not 0 <= self.learning_rate < np.inf):
            raise ConfigError("batch_size >= 1, epochs >= 0, seed >= 0, finite learning_rate >= 0")
        if any(v is not None and not 0 < v < np.inf for v in (self.max_grad_norm,
                                                             self.int_step, self.max_horizon)):
            raise ConfigError("max_grad_norm, int_step and max_horizon must be positive "
                              "and finite")
        if self.val_decision_times is not None and not self.val_decision_times:
            raise ConfigError("val_decision_times must be nonempty; omit it to "
                              "validate on decision_time_grid")


def _decisions(times, decision_times, tcfg: TrainConfig, split):
    """The index pair (k, j) of each decision time, in order, on a split's
    record `times` (:func:`~obsnode.model.decision_split` within `max_horizon`),
    and the split's integration config. ConfigError names the split and the
    first time with no history or no target (within `max_horizon`, if that is
    the cause), or int_step when a factual rollout, counted from times[k - 1]
    against the record knots by :func:`~obsnode.odeint._counted_steps`, takes
    more than MAX_STEPS; without int_step, that is the split's
    :func:`~obsnode.odeint.grid_budget_error`."""
    pairs = [decision_split(times, t_c, tcfg.max_horizon) for t_c in decision_times]
    bad = [t_c for t_c, pair in zip(decision_times, pairs) if pair is None]
    if bad:
        cause = (f"no record time within max_horizon={tcfg.max_horizon!r} after it"
                 if decision_split(times, bad[0]) else "no history or no target")
        raise ConfigError(f"{split} decision time {float(bad[0])!r} has {cause}: the "
                          f"{split} records span [{float(times[0])!r}, {float(times[-1])!r}]")
    int_cfg = (IntegrationConfig.for_grid(times) if tcfg.int_step is None
               else IntegrationConfig(tcfg.int_step))
    for k, j in pairs:
        try:
            _counted_steps(times[k - 1], times, times[k:j], int_cfg.step_size)
        except DataError:
            reach = float(times[j - 1] - times[k - 1])
            if tcfg.int_step is None:
                raise grid_budget_error(times, reach, f"{split} records")
            raise ConfigError(f"int_step: a {split} rollout over {reach!r} time units takes "
                              f"more than {MAX_STEPS} solver steps of {int_cfg.step_size!r}")
    return pairs, int_cfg


def _score(states, record: History, k, j, sigma2):
    """The masked loss of the observations of the states (:func:`~obsnode.model.rollouts`)
    at the record's targets times[k:j]."""
    return masked_loss(emissions(states, record.y.shape[2]), record.y[k:j], record.mask[k:j],
                       sigma2)


def _batch_loss(record: History, k, j, params, sigma2, int_cfg):
    """Forward pass on one batch: encode the record's first k times, forecast
    its targets times[k:j] under the factual treatments, and score."""
    return _score(rollouts(record, [(k, j)], params, int_cfg)[0], record, k, j, sigma2)


def _train_step(batch: History, k, j, params, sigma2, int_cfg, opt: Adam, max_grad_norm):
    """One Adam step on :func:`_batch_loss`, returning the loss. The batch's
    tape dies here, before validation or the next batch starts."""
    opt.zero_grad()
    with Tape() as tape:
        loss = _batch_loss(batch, k, j, params, sigma2, int_cfg)
        tape.backward(loss)
    opt.step(max_grad_norm=max_grad_norm)
    return float(loss.data)


def evaluate_loss(trajs, params, sigma2, decision_times, tcfg: TrainConfig):
    """Mean masked loss over a fixed grid of validation decision times (no
    gradients), each as :func:`_batch_loss` scores it, from one encoder pass
    over the units' stacked record."""
    record = stack_units(trajs)
    pairs, int_cfg = _decisions(record.times, decision_times, tcfg, "val")
    return _record_loss(record, params, sigma2, pairs, int_cfg)


def _record_loss(record: History, params, sigma2, pairs, int_cfg):
    """:func:`evaluate_loss` of a stacked record at its decisions' index pairs."""
    states = rollouts(record, pairs, params, int_cfg)
    return float(np.mean([float(_score(s, record, k, j, sigma2).data)
                          for s, (k, j) in zip(states, pairs)]))


# A value that overflows is reported once, by the _check_finite that finds it,
# not also as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def train(model_cfg: ObsNodeConfig, splits, tcfg: TrainConfig, stats: NormStats,
          run_dir=None, init: ObsNodeParams | None = None):
    """Fit the model on normalized splits {"train": [...], "val": [...]}.

    Returns (params, history) where history rows are dicts with epoch,
    train_loss, val_loss. The returned parameters are the checkpoint with the
    lowest validation loss. `init`, parameters of a model with the fields
    of `model_cfg` (else ConfigError naming those that differ), warm-starts
    them, e.g. to resume from a checkpoint that
    :func:`~obsnode.model.load_model` has read and checked. Each split's
    decision times are resolved to index pairs and checked once
    (:func:`_decisions`), as is the length of `stats`, the statistics the
    checkpoint keeps, before any parameter is made.
    """
    if init is not None:
        ours, theirs = asdict(model_cfg), asdict(init.cfg)
        if differ := [k for k in ours if ours[k] != theirs[k]]:
            raise ConfigError(f"model fields {differ} differ from those of the "
                              "warm-start parameters")
    grid = list(tcfg.decision_time_grid)
    val_times = tcfg.val_decision_times or grid
    resolved = []
    for split, times in (("train", grid), ("val", val_times)):
        rec = stack_units(splits[split])
        check_dims(rec, model_cfg, f"{split} split")
        resolved.append((rec, *_decisions(rec.times, times, tcfg, split)))
    (record, pairs, int_cfg), (val_record, val_pairs, val_int_cfg) = resolved
    if stats.mean.size != model_cfg.d_y:
        raise DataError(f"norm stats of length {stats.mean.size} for d_y={model_cfg.d_y}")
    rng = np.random.default_rng(tcfg.seed)
    params = ObsNodeParams(model_cfg, rng)
    if init is not None:
        params.flat[...] = init.flat
    opt = Adam(params.tensors(), lr=tcfg.learning_rate, parts=params.parts)
    n = record.y.shape[1]
    sigma2 = np.ones(model_cfg.d_y)

    history = []
    best = (np.inf, params.flat.copy())
    n_batches = int(np.ceil(n / tcfg.batch_size))

    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        epoch_losses, skipped = [], 0
        for bi in range(n_batches):
            idx = np.sort(order[bi * tcfg.batch_size:(bi + 1) * tcfg.batch_size])
            k, j = pairs[int(rng.integers(len(pairs)))]
            batch = History(record.times, record.y[:, idx], record.mask[:, idx],
                            record.a[:, idx])
            try:
                epoch_losses.append(_train_step(batch, k, j, params, sigma2, int_cfg, opt,
                                                tcfg.max_grad_norm))
            except NumericError:
                skipped += 1
        if skipped > 0.1 * n_batches:
            raise NumericError(f"epoch {epoch}: {skipped}/{n_batches} batches "
                            "diverged; aborting")
        try:
            val = _record_loss(val_record, params, sigma2, val_pairs, val_int_cfg)
        except NumericError as e:
            raise NumericError(f"epoch {epoch} validation: {e}") from e
        history.append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses)),
                        "val_loss": val})
        if val < best[0]:
            best = (val, params.flat.copy())

    params.flat[...] = best[1]
    if run_dir is not None:
        _write_run(run_dir, model_cfg, tcfg, history, params, stats)
    return params, history


def _write_run(run_dir, model_cfg, tcfg, history, params, stats):
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w") as fh:
        json.dump({"model": asdict(model_cfg), "train": asdict(tcfg)}, fh, indent=1)
    with open(run_dir / "metrics.csv", "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "val_loss"])
        wr.writeheader()
        wr.writerows(history)
    save_model(run_dir / "checkpoint.json", params, norm_stats=stats)
