"""Normalization, the masked variance-normalized loss, and the training loop.

Training is self-supervised: for each batch a decision time t_c is drawn, the
encoder sees observations up to t_c, the model forecasts the remaining record
under the factual recorded treatments, and the masked loss drives Adam. The
parameters with the best validation loss are returned.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tape, Tensor
from .errors import ConfigError, DataError, NumericError, ShapeMismatch
from .model import (History, NormStats, ObsNodeConfig, ObsNodeParams, check_dims,
                    rollouts, save_model, window)
from .odeint import MAX_STEPS, METHODS, IntegrationConfig


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
    out = []
    for tr in trajs:
        y = zscore_outcomes(tr.y, tr.mask, stats)
        out.append(type(tr)(unit_id=tr.unit_id, times=tr.times.copy(), y=y,
                            mask=tr.mask.copy(), a=tr.a.copy(),
                            latents=tr.latents, confounders=tr.confounders))
    return out


def zscore_invert(y, stats: NormStats):
    return np.asarray(y) * stats.std + stats.mean


def stack_units(trajs) -> History:
    """The units' records stacked into one batched :class:`History` on their
    shared time grid."""
    if not trajs:
        raise DataError("stack_units: empty split")
    first = trajs[0]
    for tr in trajs[1:]:
        if tr.times.shape != first.times.shape or np.any(tr.times != first.times):
            raise DataError("stack_units: units must share one time grid")
        if tr.y.shape[1] != first.y.shape[1] or tr.a.shape[1] != first.a.shape[1]:
            raise DataError(f"stack_units: (d_y, d_a) of unit {tr.unit_id} "
                            f"{tr.y.shape[1], tr.a.shape[1]} != unit {first.unit_id} "
                            f"{first.y.shape[1], first.a.shape[1]}")
    y = np.stack([tr.y for tr in trajs], axis=1)
    mask = np.stack([tr.mask for tr in trajs], axis=1)
    a = np.stack([tr.a for tr in trajs], axis=1)
    return History(first.times, y, mask, a)


def masked_loss(pred, y, mask, sigma2):
    """Variance-normalized masked squared error.

    pred: Tensor (T, n, d_y); y, mask: arrays of the same shape; sigma2: per
    component variances (d_y,). Each (unit, component) pair is averaged over
    its own observed count, scaled by 1/(n sigma_j^2), and pairs with no
    observations contribute zero.
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
    err = ad.sub(pred, Tensor(y))
    loss = ad.tsum(ad.hadamard(ad.square(err), Tensor(weights)))
    ad._check_finite("masked_loss", loss.data)
    return loss


@dataclass
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    epochs: int = 20
    decision_time_grid: list[float] = field(default_factory=list)
    t_f: float = 0.0
    seed: int = 0
    max_grad_norm: float | None = None
    int_method: str = "rk4"
    int_step: float | None = None  # default: a quarter of the grid spacing
    val_decision_times: list[float] | None = None
    max_horizon: float | None = None  # None: forecast to the record end

    def __post_init__(self):
        if not self.decision_time_grid:
            raise ConfigError("decision_time_grid must be nonempty")
        if any(t >= self.t_f for t in self.decision_time_grid):
            raise ConfigError("decision times must be < t_f")
        if self.batch_size < 1 or self.epochs < 0 or self.learning_rate < 0:
            raise ConfigError("batch_size >= 1, epochs >= 0, learning_rate >= 0")
        if any(v is not None and v <= 0 for v in (self.max_grad_norm, self.int_step,
                                                  self.max_horizon)):
            raise ConfigError("max_grad_norm, int_step and max_horizon must be positive")
        if self.int_method not in METHODS or self.seed < 0:
            raise ConfigError(f"int_method must be one of {METHODS}, seed >= 0")
        if self.val_decision_times is not None and not self.val_decision_times:
            raise ConfigError("val_decision_times must be nonempty; omit it to "
                              "validate on decision_time_grid")


def _int_config(times, tc: TrainConfig):
    if tc.int_step is None:
        return IntegrationConfig.for_grid(times, tc.int_method)
    return IntegrationConfig(method=tc.int_method, step_size=tc.int_step)


def _targets(times, t_c, max_horizon):
    """Mask of the times after t_c, up to `max_horizon` after it or to the
    record end; None when t_c has no history or no such time."""
    past, fut = window(times, t_c, None if max_horizon is None else t_c + max_horizon)
    return fut if past.any() and fut.any() else None


def _decisions(times, decision_times, max_horizon, split):
    """[(t_c, target mask)] for each decision time (see :func:`_targets`);
    ConfigError naming the split and the first time with no history or no
    target."""
    decisions = [(t_c, _targets(times, t_c, max_horizon)) for t_c in decision_times]
    bad = [t_c for t_c, fut in decisions if fut is None]
    if bad:
        raise ConfigError(f"{split} decision time {float(bad[0])!r} has no history or "
                          f"no target: the {split} records span "
                          f"[{float(times[0])!r}, {float(times[-1])!r}]")
    return decisions


def _score(preds, record: History, fut, sigma2):
    """The masked loss of the predictions at the record's target times."""
    pred = ad.reshape(ad.concat(preds, axis=0), (len(preds),) + preds[0].data.shape)
    return masked_loss(pred, record.y[fut], record.mask[fut], sigma2)


def _batch_loss(record: History, t_c, params, sigma2, int_cfg, max_horizon=None):
    """Forward pass on one batch: encode the record up to t_c, forecast its
    targets (see :func:`_decisions`) under the factual treatments, and score."""
    [(_, fut)] = _decisions(record.times, [t_c], max_horizon, "train")
    preds = rollouts(record, [(t_c, record.times[fut])], params, int_cfg)[0]
    return _score(preds, record, fut, sigma2)


def evaluate_loss(trajs, params, sigma2, decision_times, tcfg: TrainConfig):
    """Mean masked loss over a fixed grid of validation decision times (no
    gradients), each as :func:`_batch_loss` scores it, from one encoder pass
    over the units' stacked record."""
    return _record_loss(stack_units(trajs), params, sigma2, decision_times, tcfg)


def _record_loss(record: History, params, sigma2, decision_times, tcfg: TrainConfig):
    """:func:`evaluate_loss` of a stacked record."""
    futs = _decisions(record.times, decision_times, tcfg.max_horizon, "val")
    preds = rollouts(record, [(t_c, record.times[fut]) for t_c, fut in futs], params,
                     _int_config(record.times, tcfg))
    vals = [float(_score(p, record, fut, sigma2).data) for p, (_, fut) in zip(preds, futs)]
    return float(np.mean(vals))


# A value that overflows is reported once, by the _check_finite that finds it,
# not also as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def train(model_cfg: ObsNodeConfig, splits, tcfg: TrainConfig, run_dir=None,
          stats: NormStats | None = None, init_state=None):
    """Fit the model on normalized splits {"train": [...], "val": [...]}.

    Returns (params, history) where history rows are dicts with epoch,
    train_loss, val_loss. The returned parameters are the checkpoint with the
    lowest validation loss. `init_state` (name -> array) warm-starts the
    parameters, e.g. to resume from a checkpoint. Every decision time
    (:func:`_decisions`), and the length of `stats`, the statistics the
    checkpoint keeps, are checked before any parameter is made.
    """
    grid = list(tcfg.decision_time_grid)
    val_times = tcfg.val_decision_times or grid
    records = {}
    for split, times in (("train", grid), ("val", val_times)):
        rec = records[split] = stack_units(splits[split])
        check_dims(rec, model_cfg, f"{split} split")
        futs = _decisions(rec.times, times, tcfg.max_horizon, split)
        # a rollout integrates from t_c to its last target
        reach = float(max(rec.times[fut][-1] - t_c for t_c, fut in futs))
        step = _int_config(rec.times, tcfg).step_size
        if reach / step > MAX_STEPS:
            raise ConfigError(f"int_step: a {split} rollout over {reach!r} time units "
                              f"takes more than {MAX_STEPS} solver steps of {step!r}")
    record, val_record = records["train"], records["val"]
    if stats is not None and stats.mean.size != model_cfg.d_y:
        raise DataError(f"norm stats of length {stats.mean.size} for d_y={model_cfg.d_y}")
    int_cfg = _int_config(record.times, tcfg)
    rng = np.random.default_rng(tcfg.seed)
    params = ObsNodeParams(model_cfg, rng)
    if init_state is not None:
        params.load_state(init_state)
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
            t_c = grid[int(rng.integers(len(grid)))]
            batch = History(record.times, record.y[:, idx], record.mask[:, idx],
                            record.a[:, idx])
            opt.zero_grad()
            try:
                with Tape() as tape:
                    loss = _batch_loss(batch, t_c, params, sigma2, int_cfg,
                                       max_horizon=tcfg.max_horizon)
                    tape.backward(loss)
                opt.step(max_grad_norm=tcfg.max_grad_norm)
                epoch_losses.append(float(loss.data))
            except NumericError:
                skipped += 1
        if skipped > 0.1 * n_batches:
            raise NumericError(f"epoch {epoch}: {skipped}/{n_batches} batches "
                            "diverged; aborting")
        try:
            val = _record_loss(val_record, params, sigma2, val_times, tcfg)
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
