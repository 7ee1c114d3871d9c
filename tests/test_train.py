import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode import model as model_mod
from obsnode import train as train_mod
from obsnode.autodiff import Tensor, grad_check
from obsnode.errors import ConfigError, DataError, NumericError, ShapeMismatch
from obsnode.evaluate import rmse_grid
from obsnode.model import ObsNodeConfig, ObsNodeParams, load_model
from obsnode.simulate import Trajectory
from obsnode.train import (NormStats, TrainConfig, evaluate_loss, masked_loss,
                           stack_units, train, zscore_apply, zscore_fit,
                           zscore_invert)
from support import padding


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
        params, history = train(MODEL_CFG, splits, tcfg)
        assert history[-1]["train_loss"] < 1e-3

    def test_same_seed_bit_identical_history(self):
        splits = tiny_splits(seed=5)
        tcfg = tiny_train_cfg(epochs=2)
        _, h1 = train(MODEL_CFG, splits, tcfg)
        _, h2 = train(MODEL_CFG, splits, tcfg)
        assert h1 == h2

    def test_zero_learning_rate_keeps_parameters(self):
        splits = tiny_splits(seed=6)
        tcfg = tiny_train_cfg(epochs=2, learning_rate=0.0)
        params, _ = train(MODEL_CFG, splits, tcfg)
        fresh = ObsNodeParams(MODEL_CFG, np.random.default_rng(tcfg.seed))
        np.testing.assert_array_equal(params.flat, fresh.flat)

    def test_best_checkpoint_no_worse_than_final(self):
        splits = tiny_splits(seed=7)
        tcfg = tiny_train_cfg(epochs=4)
        params, history = train(MODEL_CFG, splits, tcfg)
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
    def test_unscorable_batch_time_is_config_error(self, t_c):
        # records span [0, 5]: -1 has no history and 5 no target, so the
        # batch is rejected, never returned empty
        record = stack_units(tiny_splits()["train"])
        params = ObsNodeParams(MODEL_CFG, np.random.default_rng(0))
        int_cfg = train_mod._int_config(record.times, tiny_train_cfg())
        with pytest.raises(ConfigError, match=f"train decision time {t_c!r} has no"):
            train_mod._batch_loss(record, t_c, params, np.ones(1), int_cfg)

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
            train(MODEL_CFG, tiny_splits(seed=10), tiny_train_cfg(epochs=1))

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
                    steps.append(len(snapshots))
                    super().step(max_grad_norm)

            def backward(tape, loss):
                snapshots.append([t.data.copy() for t in opts[0].tensors])
                real_backward(tape, loss)
                if len(snapshots) in inject_at:
                    opts[0].tensors[0].grad.flat[0] = np.inf

            monkeypatch.setattr(train_mod, "Adam", SpyAdam)
            monkeypatch.setattr(ad.Tape, "backward", backward)
            train(MODEL_CFG, tiny_splits(seed=11, n=10),
                  tiny_train_cfg(epochs=1, batch_size=1))
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
                    f = field(a)

                    def overflowing(z):
                        dz, vjp = f(z)
                        # the backward pass of batch k runs once k is counted
                        scale = lambda: 1e300 if len(batches) in poisoned else 1.0
                        return dz, lambda g: vjp(g) * scale() * scale()
                    return overflowing
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
                  tiny_train_cfg(epochs=1, batch_size=1))
            return steps

        assert run({3}) == [1, 2, 4, 5, 6, 7, 8, 9, 10]
        with pytest.raises(NumericError, match="2/10 batches"):
            run({3, 5})


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_padding_stays_positive_zero(self, m):
        # the first-layer z rows past z^(1..i) get gradients in every
        # backward pass; Adam freezes them, so after training each is +0.0
        cfg = ObsNodeConfig(d_y=1, m=m, d_a=1, phi_hidden_dim=4, phi_layers=1,
                            encoder_hidden_dim=4)
        params, _ = train(cfg, tiny_splits(seed=12), tiny_train_cfg(epochs=3, max_grad_norm=1.0))
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
        params, history = train(MODEL_CFG, tiny_splits(seed=13), tcfg)
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
        params, history = train(cfg, normed, tiny_train_cfg(epochs=2))
        digest = hashlib.sha256(b"".join(t.data.tobytes()
                                         for t in params.tensors())).hexdigest()
        grid = rmse_grid(splits["test"], [2.0, 3.0], [1.0, 2.0], params=params,
                         stats=stats)
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
    trajs = [Trajectory(unit_id=i, times=[0.0], y=[[1.0]], mask=[[1.0]],
                        a=[[0.0]]) for i in range(3)]
    with pytest.raises(ConfigError, match="records span"):
        train(MODEL_CFG, {"train": trajs, "val": trajs},
              tiny_train_cfg(epochs=1, int_step=None))


def test_int_step_is_checked_against_the_longest_integration():
    # the rollout from t_c = 2 to the record end at 5 takes 3e6 steps of 1e-6
    tcfg = tiny_train_cfg(epochs=0, int_step=1e-6)
    with pytest.raises(ConfigError, match="int_step: a train rollout over 3.0"):
        train(MODEL_CFG, tiny_splits(), tcfg)
