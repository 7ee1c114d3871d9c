import gc
import hashlib
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode import model as model_mod
from obsnode import train as train_mod
from obsnode.autodiff import Tensor, grad_check
from obsnode.errors import ConfigError, DataError, NumericError, ShapeMismatch
from obsnode.evaluate import rmse_grid
from obsnode import odeint
from obsnode.model import (History, ObsNodeConfig, ObsNodeParams, decision_split,
                           load_model, rollouts)
from obsnode.odeint import (MAX_STEPS, ControlPath, IntegrationConfig, _counted_steps,
                            _step_boundaries, _steps_per_gap)
from obsnode.simulate import Trajectory
from obsnode.train import (NormStats, TrainConfig, evaluate_loss, masked_loss,
                           stack_units, train, zscore_apply, zscore_fit,
                           zscore_invert)
from support import identity_stats, padding


def make_trajs(n=4, T=6, d_y=2, d_a=1, seed=0, constant=None):
    rng = np.random.default_rng(seed)
    times = np.arange(float(T))
    out = []
    for uid in range(n):
        y = (np.full((T, d_y), constant) if constant is not None
             else rng.normal(size=(T, d_y)))
        out.append(Trajectory(unit_id=uid, times=times.copy(), y=y,
                              mask=np.ones((T, d_y)),
                              a=rng.normal(size=(T, d_a))))
    return out


class TestNormStats:
    @pytest.mark.parametrize("mean,std,message", [
        ([0.0], [0.0], "component 0 has zero spread"),
        ([0.0, 1.0], [1.0, np.nan], "component 1 has mean 1.0 and std nan"),
        ([np.inf], [1.0], "component 0 has mean inf"),
        ([0.0], [-1.0], "component 0 has mean 0.0 and std -1.0"),
        ([0.0, 0.0], [1.0], "mean (2,) and std (1,) must be vectors"),
        ([[0.0]], [[1.0]], "mean (1, 1) and std (1, 1) must be vectors"),
        (0.0, 1.0, "mean () and std () must be vectors")])
    def test_bad_stats_are_data_error(self, mean, std, message):
        with pytest.raises(DataError, match=re.escape(message)):
            NormStats(mean=mean, std=std)

    @pytest.mark.parametrize("std", [0.0, np.nan])
    def test_train_with_a_bad_scale_writes_no_checkpoint(self, tmp_path, std):
        # the scale is refused where it is made: no epoch runs and no
        # checkpoint that load_model would refuse is written
        with pytest.raises(DataError, match="component 0 has "):
            train(MODEL_CFG, tiny_splits(), tiny_train_cfg(epochs=1),
                  run_dir=tmp_path / "run", stats=NormStats(mean=[0.0], std=[std]))
        assert not (tmp_path / "run").exists()

    def test_stats_of_another_d_y_are_rejected_before_any_parameter(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.setattr(train_mod, "ObsNodeParams", None)
        with pytest.raises(DataError, match="norm stats of length 2 for d_y=1"):
            train(MODEL_CFG, tiny_splits(), tiny_train_cfg(epochs=1),
                  run_dir=tmp_path / "run", stats=NormStats([0.0, 0.0], [1.0, 1.0]))
        assert not (tmp_path / "run").exists()


class TestZscore:
    def test_train_split_normalizes_to_standard(self):
        trajs = make_trajs(n=8, seed=1)
        stats = zscore_fit(trajs)
        normed = zscore_apply(trajs, stats)
        ys = np.concatenate([tr.y for tr in normed])
        np.testing.assert_allclose(ys.mean(0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ys.std(0), 1.0, atol=1e-12)

    def test_roundtrip(self):
        trajs = make_trajs(n=3, seed=2)
        stats = zscore_fit(trajs)
        normed = zscore_apply(trajs, stats)
        for raw, nm in zip(trajs, normed):
            np.testing.assert_allclose(zscore_invert(nm.y, stats), raw.y,
                                       atol=1e-12)

    def test_shifted_test_split_not_centered(self):
        trajs = make_trajs(n=6, seed=3)
        stats = zscore_fit(trajs)
        shifted = [Trajectory(unit_id=t.unit_id, times=t.times, y=t.y + 1.0,
                              mask=t.mask, a=t.a) for t in trajs]
        normed = zscore_apply(shifted, stats)
        ys = np.concatenate([tr.y for tr in normed])
        assert np.all(np.abs(ys.mean(0)) > 0.1)

    def test_zero_variance_component_rejected(self):
        trajs = make_trajs(n=4, constant=3.0)
        with pytest.raises(DataError) as e:
            zscore_fit(trajs)
        assert "component 0" in str(e.value)

    def test_treatments_untouched(self):
        trajs = make_trajs(n=3, seed=4)
        normed = zscore_apply(trajs, zscore_fit(trajs))
        for raw, nm in zip(trajs, normed):
            np.testing.assert_array_equal(raw.a, nm.a)


class TestStackUnits:
    def test_shapes(self):
        trajs = make_trajs(n=3, T=5, d_y=2, d_a=1)
        record = stack_units(trajs)
        assert record.times.shape == (5,)
        assert record.y.shape == (5, 3, 2) and record.mask.shape == (5, 3, 2)
        assert record.a.shape == (5, 3, 1)

    def test_grid_mismatch_rejected(self):
        trajs = make_trajs(n=2, T=5)
        trajs[1].times = trajs[1].times + 0.5
        with pytest.raises(DataError):
            stack_units(trajs)

    def test_dimension_mismatch_names_both_units(self):
        trajs = make_trajs(n=2, T=5, d_y=2) + make_trajs(n=1, T=5, d_y=3)
        trajs[2].unit_id = 7
        with pytest.raises(DataError) as e:
            stack_units(trajs)
        assert "unit 7 (3, 1) != unit 0 (2, 1)" in str(e.value)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), T=st.integers(1, 6), d_y=st.integers(1, 3),
           d_a=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
    def test_each_field_is_the_units_stacked_on_axis_1(self, n, T, d_y, d_a, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.1, 2.0, size=T))
        trajs = []
        for uid in range(n):
            mask = (rng.uniform(size=(T, d_y)) < 0.7).astype(float)
            trajs.append(Trajectory(unit_id=uid, times=times.copy(),
                                    y=np.where(mask == 1.0, rng.normal(size=(T, d_y)), 0.0),
                                    mask=mask, a=rng.normal(size=(T, d_a))))
        record = stack_units(trajs)
        assert record.times.view(np.int64).tolist() == times.view(np.int64).tolist()
        for f in ("y", "mask", "a"):
            got, want = getattr(record, f), np.stack([getattr(tr, f) for tr in trajs], axis=1)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("where", range(4))
    @pytest.mark.parametrize("kind", ["another T", "one time off"])
    def test_an_off_grid_unit_anywhere_is_rejected(self, where, kind):
        trajs = make_trajs(n=4, T=5)
        if kind == "another T":
            trajs[where] = make_trajs(n=1, T=6)[0]
        else:
            trajs[where].times[3] = np.nextafter(trajs[where].times[3], np.inf)
        with pytest.raises(DataError, match="^stack_units: units must share one time grid$"):
            stack_units(trajs)

    @pytest.mark.parametrize("order,message", [
        ("grid, width", "^stack_units: units must share one time grid$"),
        ("width, grid", r"^stack_units: \(d_y, d_a\) of unit 8 \(2, 3\) != unit 0 \(2, 1\)$")])
    def test_the_first_off_unit_in_list_order_names_the_error(self, order, message):
        trajs = make_trajs(n=3, T=5)
        off = {"grid": make_trajs(n=1, T=5)[0], "width": make_trajs(n=1, T=5, d_a=3)[0]}
        off["grid"].times = off["grid"].times + 0.5
        off["width"].unit_id = 8
        trajs += [off[kind] for kind in order.split(", ")] + make_trajs(n=1, T=5, d_y=1)
        with pytest.raises(DataError, match=message):
            stack_units(trajs)


class TestMaskedLoss:
    def test_perfect_predictions_give_zero(self):
        y = np.random.default_rng(0).normal(size=(4, 2, 3))
        mask = np.ones_like(y)
        loss = masked_loss(Tensor(y.copy()), y, mask, np.ones(3))
        assert float(loss.data) == 0.0

    def test_direct_evaluation(self):
        # one unit, one component, two observed points each off by one:
        # (1/(1*1*2)) * 2 = 1
        y = np.zeros((2, 1, 1))
        pred = Tensor(np.ones((2, 1, 1)))
        loss = masked_loss(pred, y, np.ones_like(y), np.array([1.0]))
        assert float(loss.data) == pytest.approx(1.0)

    def test_doubling_variance_halves_contribution(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(3, 2, 1))
        pred = Tensor(rng.normal(size=(3, 2, 1)))
        l1 = float(masked_loss(pred, y, np.ones_like(y), np.array([1.0])).data)
        l2 = float(masked_loss(pred, y, np.ones_like(y), np.array([2.0])).data)
        assert l2 == pytest.approx(l1 / 2.0)

    def test_unobserved_pair_contributes_zero(self):
        y = np.zeros((2, 1, 2))
        mask = np.zeros_like(y)
        mask[:, :, 0] = 1.0
        pred = Tensor(np.full((2, 1, 2), 5.0))
        loss = masked_loss(pred, y, mask, np.ones(2))
        # only component 0 counts: (1/(1*1*2)) * 2 * 25 = 25
        assert float(loss.data) == pytest.approx(25.0)

    def test_duplicating_a_unit_preserves_loss(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(3, 2, 1))
        p = rng.normal(size=(3, 2, 1))
        mask = np.ones_like(y)
        base = float(masked_loss(Tensor(p), y, mask, np.ones(1)).data)
        y2 = np.concatenate([y, y[:, :1]], axis=1)
        p2 = np.concatenate([p, p[:, :1]], axis=1)
        dup = float(masked_loss(Tensor(p2), y2, np.ones_like(y2), np.ones(1)).data)
        expected = (2.0 * base / 3.0
                    + float(masked_loss(Tensor(p[:, :1]), y[:, :1],
                                        mask[:, :1], np.ones(1)).data) / 3.0)
        assert dup == pytest.approx(expected)

    def test_observation_order_irrelevant(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, 1, 1))
        p = rng.normal(size=(4, 1, 1))
        perm = np.array([2, 0, 3, 1])
        l1 = float(masked_loss(Tensor(p), y, np.ones_like(y), np.ones(1)).data)
        l2 = float(masked_loss(Tensor(p[perm]), y[perm], np.ones_like(y),
                               np.ones(1)).data)
        assert l1 == pytest.approx(l2)

    def test_shape_disagreement_is_a_shape_mismatch(self):
        y = np.zeros((2, 1, 1))
        with pytest.raises(ShapeMismatch, match="masked_loss"):
            masked_loss(Tensor(np.zeros((3, 1, 1))), y, np.ones_like(y), np.ones(1))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_prediction_names_masked_loss(self):
        y = np.zeros((2, 1, 1))
        with pytest.raises(NumericError, match="masked_loss"):
            masked_loss(Tensor(np.full(y.shape, 1e200)), y, np.ones_like(y),
                        np.ones(1))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(3, 2, 1))
        mask = (rng.uniform(size=y.shape) > 0.3).astype(float)
        f = lambda p: masked_loss(p, y, mask, np.array([0.7]))
        p = Tensor(rng.normal(size=y.shape))
        assert grad_check(lambda: f(p), p) < 1e-6


def tiny_splits(seed=0, n=6, constant=None):
    train_trs = make_trajs(n=n, T=6, d_y=1, d_a=1, seed=seed, constant=constant)
    val_trs = make_trajs(n=2, T=6, d_y=1, d_a=1, seed=seed + 100,
                         constant=constant)
    return {"train": train_trs, "val": val_trs}


def tiny_train_cfg(**kw):
    kw.setdefault("batch_size", 3)
    kw.setdefault("epochs", 3)
    kw.setdefault("decision_time_grid", [2.0, 3.0])
    kw.setdefault("t_f", 5.0)
    kw.setdefault("int_step", 0.5)
    return TrainConfig(**kw)


MODEL_CFG = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=8, phi_layers=1,
                          encoder_hidden_dim=8)
STATS = identity_stats(MODEL_CFG.d_y)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(decision_time_grid=[], t_f=5.0)
        with pytest.raises(ConfigError):
            TrainConfig(decision_time_grid=[5.0], t_f=5.0)


class TestTrainLoop:
    def test_constant_dataset_reaches_small_loss(self):
        splits = tiny_splits(constant=0.0)
        tcfg = tiny_train_cfg(epochs=30, learning_rate=3e-3)
        params, history = train(MODEL_CFG, splits, tcfg, stats=STATS)
        assert history[-1]["train_loss"] < 1e-3

    def test_same_seed_bit_identical_history(self):
        splits = tiny_splits(seed=5)
        tcfg = tiny_train_cfg(epochs=2)
        _, h1 = train(MODEL_CFG, splits, tcfg, stats=STATS)
        _, h2 = train(MODEL_CFG, splits, tcfg, stats=STATS)
        assert h1 == h2

    def test_zero_learning_rate_keeps_parameters(self):
        splits = tiny_splits(seed=6)
        tcfg = tiny_train_cfg(epochs=2, learning_rate=0.0)
        params, _ = train(MODEL_CFG, splits, tcfg, stats=STATS)
        fresh = ObsNodeParams(MODEL_CFG, np.random.default_rng(tcfg.seed))
        np.testing.assert_array_equal(params.flat, fresh.flat)

    def test_best_checkpoint_no_worse_than_final(self):
        splits = tiny_splits(seed=7)
        tcfg = tiny_train_cfg(epochs=4)
        params, history = train(MODEL_CFG, splits, tcfg, stats=STATS)
        best_val = evaluate_loss(splits["val"], params, np.ones(1),
                                 tcfg.decision_time_grid, tcfg)
        final_val = history[-1]["val_loss"]
        assert best_val <= final_val + 1e-9

    def test_run_directory_artifacts(self, tmp_path):
        splits = tiny_splits(seed=8)
        tcfg = tiny_train_cfg(epochs=1)
        stats = NormStats(mean=np.zeros(1), std=np.ones(1))
        train(MODEL_CFG, splits, tcfg, run_dir=tmp_path / "run", stats=stats)
        assert (tmp_path / "run" / "config.json").exists()
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 2
        params, cfg, loaded_stats = load_model(tmp_path / "run" / "checkpoint.json")
        assert cfg == MODEL_CFG
        np.testing.assert_array_equal(loaded_stats.std, stats.std)

    @pytest.mark.parametrize("t_c", [-1.0, 5.0])
    def test_unscorable_batch_time_is_config_error(self, t_c, monkeypatch):
        # records span [0, 5]: -1 has no history and 5 no target, so the
        # batch time is rejected before any batch runs, never scored empty
        monkeypatch.setattr(train_mod, "_batch_loss", None)
        tcfg = tiny_train_cfg(decision_time_grid=[2.0, t_c], t_f=6.0)
        with pytest.raises(ConfigError, match=f"train decision time {t_c!r} has no"):
            train(MODEL_CFG, tiny_splits(), tcfg, stats=STATS)

    def test_shape_bug_propagates(self, monkeypatch):
        # a programming error must not be counted as a diverged batch
        real, calls = train_mod._batch_loss, []

        def faulty(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ShapeMismatch("injected", (1,), (2,))
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "_batch_loss", faulty)
        with pytest.raises(ShapeMismatch):
            train(MODEL_CFG, tiny_splits(seed=10), tiny_train_cfg(epochs=1), stats=STATS)

    def test_nonfinite_gradient_skips_the_batch(self, monkeypatch):
        # an inf gradient must never reach Adam: the batch is skipped and
        # counted, and the parameters keep their values
        real_backward = ad.Tape.backward

        def run(inject_at):
            opts, steps, snapshots = [], [], []

            class SpyAdam(ad.Adam):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    opts.append(self)

                def step(self, max_grad_norm=None):
                    super().step(max_grad_norm)
                    steps.append(len(snapshots))

            def backward(tape, loss):
                snapshots.append([t.data.copy() for t in opts[0].tensors])
                real_backward(tape, loss)
                if len(snapshots) in inject_at:
                    opts[0].tensors[0].grad.flat[0] = np.inf

            monkeypatch.setattr(train_mod, "Adam", SpyAdam)
            monkeypatch.setattr(ad.Tape, "backward", backward)
            train(MODEL_CFG, tiny_splits(seed=11, n=10),
                  tiny_train_cfg(epochs=1, batch_size=1), stats=STATS)
            return steps, snapshots

        steps, snapshots = run({3})
        assert len(snapshots) == 10
        assert steps == [1, 2, 4, 5, 6, 7, 8, 9, 10]
        for before, after in zip(snapshots[2], snapshots[3]):
            np.testing.assert_array_equal(before, after)
        with pytest.raises(NumericError, match="2/10 batches"):
            run({3, 5})

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_step_gradient_skips_the_batch(self, monkeypatch):
        # a field whose forward pass stays finite but whose VJP overflows on
        # chosen batches: the step node raises in the backward pass, the
        # batch is skipped and counted, and Adam sees only finite gradients
        real_stack, real_backward = model_mod.stack_field, ad.Tape.backward

        def run(poisoned):
            batches, steps = [], []

            def stack_field(params):
                field, tensors = real_stack(params)

                def bind(a):
                    f, rebuild = field(a)

                    def overflowing(zs):
                        vjp = rebuild(zs)
                        # the backward pass of batch k runs once k is counted
                        scale = lambda: 1e300 if len(batches) in poisoned else 1.0
                        return lambda i, g: vjp(i, g) * scale() * scale()
                    return f, overflowing
                return bind, tensors

            class SpyAdam(ad.Adam):
                def step(self, max_grad_norm=None):
                    steps.append(len(batches))
                    assert all(t.grad is None or np.isfinite(t.grad).all()
                               for t in self.tensors)
                    super().step(max_grad_norm)

            def backward(tape, loss):
                batches.append(None)
                real_backward(tape, loss)

            monkeypatch.setattr(model_mod, "stack_field", stack_field)
            monkeypatch.setattr(train_mod, "Adam", SpyAdam)
            monkeypatch.setattr(ad.Tape, "backward", backward)
            train(MODEL_CFG, tiny_splits(seed=11, n=10),
                  tiny_train_cfg(epochs=1, batch_size=1), stats=STATS)
            return steps

        assert run({3}) == [1, 2, 4, 5, 6, 7, 8, 9, 10]
        with pytest.raises(NumericError, match="2/10 batches"):
            run({3, 5})


    def test_no_batch_tape_outlives_its_batch(self, monkeypatch):
        # with the cyclic collector off, so only references keep a tape:
        # each batch's forward pass starts with no earlier batch's tape
        # alive, and validation with none at all
        tapes, seen = [], []

        class WatchedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        def watch(real, live):
            def call(*args, **kwargs):
                seen.append([t() is not None for t in tapes[:len(tapes) - live]])
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(train_mod, "Tape", WatchedTape)
        monkeypatch.setattr(train_mod, "_batch_loss", watch(train_mod._batch_loss, 1))
        monkeypatch.setattr(train_mod, "_record_loss", watch(train_mod._record_loss, 0))
        enabled = gc.isenabled()
        gc.disable()
        try:
            train(MODEL_CFG, tiny_splits(seed=14), tiny_train_cfg(epochs=2), stats=STATS)
        finally:
            if enabled:
                gc.enable()
        assert len(tapes) == 4 and len(seen) == 6
        assert not any(alive for call in seen for alive in call)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_padding_stays_positive_zero(self, m):
        # the first-layer z rows past z^(1..i) get gradients in every
        # backward pass; Adam freezes them, so after training each is +0.0
        cfg = ObsNodeConfig(d_y=1, m=m, d_a=1, phi_hidden_dim=4, phi_layers=1,
                            encoder_hidden_dim=4)
        params, _ = train(cfg, tiny_splits(seed=12), tiny_train_cfg(epochs=3, max_grad_norm=1.0),
                          stats=identity_stats(cfg.d_y))
        pad = params.phi[0].data[padding(params)]
        assert pad.size == m * (m - 1) // 2 * 4
        assert (pad == 0.0).all() and not np.signbit(pad).any()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_gradient_norm_still_steps(self, monkeypatch):
        # every gradient scaled by 1e200 after the backward pass stays
        # finite, but its squares overflow: the clipped step still moves
        # the parameters by about the learning rate
        real_backward = ad.Tape.backward

        def backward(tape, loss):
            real_backward(tape, loss)
            for t in params_seen[0].tensors():
                if t.grad is not None:
                    t.grad *= 1e200

        params_seen = []
        real_init = model_mod.ObsNodeParams.__init__

        def init(self, *args):
            real_init(self, *args)
            params_seen.append(self)

        monkeypatch.setattr(ad.Tape, "backward", backward)
        monkeypatch.setattr(model_mod.ObsNodeParams, "__init__", init)
        tcfg = tiny_train_cfg(epochs=1, batch_size=6, max_grad_norm=1.0)
        params, history = train(MODEL_CFG, tiny_splits(seed=13), tcfg, stats=STATS)
        fresh = ObsNodeParams(MODEL_CFG, np.random.default_rng(tcfg.seed))
        moved = np.abs(params.flat - fresh.flat)
        assert np.isfinite(history[0]["val_loss"])
        assert 0.9e-3 < moved.max() <= 1.0e-3 + 1e-12


def with_placeholders(trajs, holes, value):
    """Copies of `trajs` with mask 0 and `value` in y at each (unit, time,
    component) of `holes`."""
    out = []
    for uid, tr in enumerate(trajs):
        y, mask = tr.y.copy(), tr.mask.copy()
        for u, k, j in holes:
            if u == uid:
                y[k, j], mask[k, j] = value, 0.0
        out.append(Trajectory(unit_id=tr.unit_id, times=tr.times, y=y,
                              mask=mask, a=tr.a))
    return out


class TestUnobservedPlaceholder:
    SPLITS = {"train": make_trajs(n=6, T=6, d_y=2, seed=20),
              "val": make_trajs(n=3, T=6, d_y=2, seed=21),
              "test": make_trajs(n=3, T=6, d_y=2, seed=22)}

    def outputs(self, holes, value):
        splits = {s: with_placeholders(trs, [h[1:] for h in holes if h[0] == s],
                                       value)
                  for s, trs in self.SPLITS.items()}
        stats = zscore_fit(splits["train"])
        normed = {s: zscore_apply(splits[s], stats) for s in ("train", "val")}
        cfg = ObsNodeConfig(d_y=2, m=2, d_a=1, phi_hidden_dim=8, phi_layers=1,
                            encoder_hidden_dim=8)
        params, history = train(cfg, normed, tiny_train_cfg(epochs=2), stats=stats)
        digest = hashlib.sha256(b"".join(t.data.tobytes()
                                         for t in params.tensors())).hexdigest()
        grid = rmse_grid(splits["test"], [2.0, 3.0], [1.0, 2.0], params=params,
                         stats=stats, int_cfg=params.int_cfg)
        return json.dumps(history), digest, grid.values.tobytes()

    @settings(max_examples=8, deadline=None)
    @given(holes=st.lists(st.tuples(st.sampled_from(["train", "val", "test"]),
                                     st.integers(0, 2), st.integers(0, 5),
                                     st.integers(0, 1)),
                          min_size=1, max_size=4, unique=True),
           value=st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 1e308]),
                           st.floats()))
    def test_any_placeholder_gives_the_results_of_zero(self, holes, value):
        # the records' contract makes unobserved entries 0.0, so no value
        # there, NaN and inf included, can change training or evaluation
        assert self.outputs(holes, value) == self.outputs(holes, 0.0)


def test_single_time_records_are_unscorable():
    # the default step comes from the grid spacing, which one time lacks
    trajs = [Trajectory(unit_id=i, times=np.zeros(1), y=np.ones((1, 1)), mask=np.ones((1, 1)),
                        a=np.zeros((1, 1))) for i in range(3)]
    with pytest.raises(ConfigError, match="records span"):
        train(MODEL_CFG, {"train": trajs, "val": trajs},
              tiny_train_cfg(epochs=1, int_step=None), stats=STATS)


def test_omitted_int_step_is_a_quarter_of_the_smallest_spacing():
    # the records' smallest spacing is 0.5, so the default step is 0.125
    times = np.array([0.0, 1.0, 2.0, 2.5, 4.0, 5.0])
    splits = {k: [Trajectory(unit_id=t.unit_id, times=times, y=t.y, mask=t.mask, a=t.a)
                  for t in trs] for k, trs in tiny_splits(seed=3).items()}
    runs = []
    for int_step in (None, 0.125):
        params, history = train(MODEL_CFG, splits, tiny_train_cfg(epochs=2, int_step=int_step),
                                stats=STATS)
        runs.append((json.dumps(history), params.flat.tobytes()))
    assert runs[0] == runs[1]


def test_int_step_is_checked_against_the_longest_integration():
    # the rollout from t_c = 2 to the record end at 5 takes 3e6 steps of 1e-6
    tcfg = tiny_train_cfg(epochs=0, int_step=1e-6)
    with pytest.raises(ConfigError, match="int_step: a train rollout over 3.0"):
        train(MODEL_CFG, tiny_splits(), tcfg, stats=STATS)


@pytest.mark.parametrize("split", ["train", "val"])
def test_int_step_counts_the_steps_of_each_grid_gap(split, monkeypatch):
    # from t_c = 1 on a 61-point hourly grid, the 59 hours at 59 / 999999.5
    # are 999999.5 steps, but the solver rounds each hour up to 16950 steps,
    # 1000050 in all, more than MAX_STEPS: a ConfigError before any batch
    monkeypatch.setattr(train_mod, "_batch_loss", None)
    splits = {"train": make_trajs(n=3, T=61, d_y=1), "val": make_trajs(n=2, T=61, d_y=1)}
    t_cs = {"train": [30.0], "val": [30.0], split: [1.0]}
    tcfg = TrainConfig(epochs=1, decision_time_grid=t_cs["train"],
                       val_decision_times=t_cs["val"], t_f=60.0, int_step=59 / 999999.5)
    assert _steps_per_gap(np.arange(1.0, 61.0), tcfg.int_step).sum() == 1_000_050
    with pytest.raises(ConfigError, match=f"int_step: a {split} rollout over 59.0 .* "
                                          f"more than {MAX_STEPS} solver steps"):
        train(MODEL_CFG, splits, tcfg, stats=STATS)


def tiny_gap_splits(split):
    """Two-unit train and val splits, the `split` on the times 0, 1e-300, 1,
    2 and the other on 0, 0.4, 0.6, 1."""
    splits = {s: make_trajs(n=2, T=4, d_y=1) for s in ("train", "val")}
    for s, trajs in splits.items():
        for tr in trajs:
            tr.times = np.array([0.0, 1e-300, 1.0, 2.0] if s == split else [0.0, 0.4, 0.6, 1.0])
    return splits


def test_a_tiny_time_gap_is_a_data_error_unless_int_step_is_set(monkeypatch):
    # on the train times 0, 1e-300, 1, 2 the default step, a quarter of the
    # smallest gap, asks for about 8e300 steps: a DataError naming the train
    # split and the gap, its count not printed digit by digit. An int_step
    # that asks for too many steps is the config's doing, a ConfigError. The
    # val split's rollout, over 0.6 time units, takes fewer.
    monkeypatch.setattr(train_mod, "_batch_loss", None)
    splits = tiny_gap_splits("train")
    with pytest.raises(DataError, match=re.escape(
            "the train records' smallest time gap 1e-300 sets solver steps of 2.5e-301: "
            f"a rollout over 2.0 time units takes more than {MAX_STEPS}")):
        train(MODEL_CFG, splits, TrainConfig(decision_time_grid=[0.5], t_f=3.0), stats=STATS)
    tcfg = TrainConfig(decision_time_grid=[0.5], t_f=3.0, int_step=1e-6)
    with pytest.raises(ConfigError, match="int_step: a train rollout over 2.0 time units"):
        train(MODEL_CFG, splits, tcfg, stats=STATS)


def test_a_tiny_val_gap_sets_no_step():
    # the val split's times 0, 1e-300, 1, 2 set no step: without int_step
    # both splits integrate at a quarter of the train split's smallest gap,
    # 40 steps over the val rollout's 2.0 time units, and the best val_loss
    # is evaluate_loss's at the returned parameters' step. An int_step of
    # 1e-6 still takes too many steps on the val rollout: a ConfigError.
    splits = tiny_gap_splits("val")
    tcfg = TrainConfig(decision_time_grid=[0.5], t_f=3.0, epochs=1)
    params, history = train(MODEL_CFG, splits, tcfg, stats=STATS)
    train_times = splits["train"][0].times
    assert params.int_cfg == IntegrationConfig.for_grid(train_times)
    assert history[0]["val_loss"] == evaluate_loss(splits["val"], params, np.ones(1), [0.5],
                                                   tcfg)
    tcfg = TrainConfig(decision_time_grid=[0.5], t_f=3.0, int_step=1e-6)
    with pytest.raises(ConfigError, match="int_step: a val rollout over 2.0 time units"):
        train(MODEL_CFG, splits, tcfg, stats=STATS)


def test_validation_integrates_at_the_train_splits_step():
    # train and val splits on different grids, without int_step: the best
    # val_loss is the loss at the step the train split sets, which the
    # returned parameters carry, not at the val split's own (a quarter of
    # 0.5 against a quarter of 1.0), and the two differ
    splits = tiny_splits(seed=9)
    for tr in splits["val"]:
        tr.times = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
    tcfg = tiny_train_cfg(epochs=2, int_step=None, learning_rate=0.05)
    params, history = train(MODEL_CFG, splits, tcfg, stats=STATS)
    assert params.int_cfg == IntegrationConfig(0.25)
    val_loss = evaluate_loss(splits["val"], params, np.ones(1), tcfg.decision_time_grid, tcfg)
    assert min(h["val_loss"] for h in history) == val_loss
    params.int_cfg = IntegrationConfig(0.125)
    assert evaluate_loss(splits["val"], params, np.ones(1), tcfg.decision_time_grid,
                         tcfg) != val_loss


@settings(max_examples=100, deadline=None)
@given(gaps=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=12),
       step=st.floats(1e-2, 5.0), data=st.data())
def test_step_count_is_the_solvers(gaps, step, data):
    # the count over times[k - 1:j] is the number of steps the solver makes
    # on a factual rollout from the first k times to the targets times[k:j]
    times = np.cumsum(gaps)
    assume(np.all(np.diff(times) > 0))
    k = data.draw(st.integers(1, times.size - 1), label="k")
    j = data.draw(st.integers(k + 1, times.size), label="j")
    edges = _step_boundaries(times[k - 1], ControlPath(times, np.zeros((times.size, 1, 1))),
                             times[k:j], IntegrationConfig(step_size=step))
    assert _steps_per_gap(times[k - 1:j], step).sum() == len(edges) - 1


class Reached(Exception):
    """Raised by a stand-in for the first call after a function's checks."""


def reached(*args, **kwargs):
    raise Reached


@settings(max_examples=150, deadline=None)
@given(gaps=st.lists(st.floats(1e-2, 3.0), min_size=2, max_size=10),
       step=st.floats(0.05, 2.0), data=st.data())
def test_one_count_bounds_every_solve(gaps, step, data):
    # random grids, step sizes, knots and decision times: _step_boundaries
    # makes one edge per step of the one count, and with MAX_STEPS at or
    # just below a decision's count, rollouts (counting the control's
    # knots) raises DataError and train() (counting the record's) ConfigError
    # exactly when some decision's count exceeds it, before the encoder
    # runs or any parameter is made
    times = np.cumsum(gaps)
    assume(np.all(np.diff(times) > 0))
    t_cs = data.draw(st.lists(st.floats(times[0], times[-1]), min_size=1, max_size=3),
                     label="decision times")
    horizon = data.draw(st.one_of(st.none(), st.floats(0.1, 10.0)), label="max_horizon")
    knots = data.draw(st.lists(st.floats(0.0, times[-1] + 1.0), min_size=1, max_size=4,
                               unique=True), label="knots")
    pairs = [decision_split(times, t_c, horizon) for t_c in t_cs]
    assume(None not in pairs)
    control = ControlPath(np.sort(knots), np.zeros((len(knots), 1)))
    int_cfg = IntegrationConfig(step)
    counts, factual = [], []
    for k, j in pairs:
        _, steps = _counted_steps(times[k - 1], control.knot_times, times[k:j], step)
        edges = _step_boundaries(times[k - 1], control, times[k:j], int_cfg)
        assert len(edges) - 1 == steps.sum()
        counts.append(steps.sum())
        factual.append(_counted_steps(times[k - 1], times, times[k:j], step)[1].sum())
    limit = int(data.draw(st.sampled_from(sorted({c - d for c in counts + factual
                                                   for d in (0, 1)})), label="MAX_STEPS"))
    T = times.size
    trajs = [Trajectory(unit_id=i, times=times, y=np.zeros((T, 1)), mask=np.ones((T, 1)),
                        a=np.zeros((T, 1))) for i in range(2)]
    tcfg = TrainConfig(decision_time_grid=t_cs, t_f=times[-1] + 1.0, int_step=step,
                       max_horizon=horizon)
    params = ObsNodeParams(MODEL_CFG, np.random.default_rng(0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "MAX_STEPS", limit)
        mp.setattr(model_mod, "encode_prefixes", reached)
        mp.setattr(train_mod, "ObsNodeParams", reached)
        with pytest.raises(DataError if max(counts) > limit else Reached):
            rollouts(stack_units(trajs), pairs, params, int_cfg, control)
        with pytest.raises(ConfigError if max(factual) > limit else Reached):
            train(MODEL_CFG, {"train": trajs, "val": trajs}, tcfg, stats=STATS)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 3]), step=st.floats(0.1, 2.0), data=st.data(),
       seed=st.integers(0, 2**16))
def test_a_batch_tape_is_the_solver_steps_and_four_nodes(n, step, data, seed):
    # one node per solver step of the rollout, then the encoder (one GRU
    # node), its head, the emission and the masked loss
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.5, 2.0, size=8))
    k = data.draw(st.integers(1, times.size - 1), label="k")
    j = data.draw(st.integers(k + 1, times.size), label="j")
    record = History(times, rng.normal(size=(8, n, 1)), np.ones((8, n, 1)),
                     rng.normal(size=(8, n, 1)))
    params = ObsNodeParams(MODEL_CFG, rng)
    with ad.Tape() as tape:
        train_mod._batch_loss(record, k, j, params, np.ones(1), IntegrationConfig(step))
    assert len(tape) == _steps_per_gap(times[k - 1:j], step).sum() + 4
