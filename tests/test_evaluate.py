import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode import evaluate
from obsnode.autodiff import Tape
from obsnode.errors import ConfigError, DataError
from obsnode.evaluate import (RmseGrid, _binned_rmse, raw_forecasts, rmse_grid,
                              write_grid_csvs, write_grid_pgm)
from obsnode.model import History, ObsNodeConfig, ObsNodeParams, decision_split
from obsnode.odeint import ControlPath, IntegrationConfig
from obsnode.simulate import Trajectory
from obsnode.train import (NormStats, TrainConfig, _batch_loss, evaluate_loss,
                           stack_units, zscore_fit)
from support import (counterfactual_rmse, identity_stats, masked_binned_rmse, read_grid_csv,
                     reencoded_grid, reencoded_loss)


def linear_trajs(n=5, T=13, d_y=1, seed=0, noise_sd=0.0):
    """Units following y = b + c t exactly (plus optional noise)."""
    rng = np.random.default_rng(seed)
    times = np.arange(float(T))
    out, coeffs = [], []
    for uid in range(n):
        b, c = rng.normal(size=2)
        y = (b + c * times)[:, None] * np.ones((1, d_y))
        y += rng.normal(0, noise_sd, size=y.shape)
        out.append(Trajectory(unit_id=uid, times=times.copy(), y=y,
                              mask=np.ones_like(y), a=np.zeros((T, 1))))
        coeffs.append((b, c))
    return out, coeffs


def oracle_predict(trajs):
    def predict(record, k, j):
        return record.y[k:j].copy()

    return predict


@pytest.fixture
def grid_of(monkeypatch):
    """rmse_grid(trajs, t_c_grid, horizons) with `predict(record, k, j)`,
    the forecasts from the first k record times to the targets times[k:j],
    standing in for the model's."""

    def grid(trajs, t_c_grid, horizons, predict):
        monkeypatch.setattr(evaluate, "raw_forecasts", lambda record, decisions, *_: [
            predict(record, k, j) for k, j in decisions])
        return rmse_grid(trajs, t_c_grid, horizons, params=None,
                         stats=identity_stats(trajs[0].y.shape[1]), int_cfg=None)

    return grid


class TestRmseGrid:
    def test_oracle_predictor_is_zero(self, grid_of):
        trajs, _ = linear_trajs()
        grid = grid_of(trajs, [4.0, 6.0], [2.0, 4.0], oracle_predict(trajs))
        assert np.nanmax(grid.values) < 1e-10

    def test_scale_is_the_split_zscore_fit_std(self, grid_of, monkeypatch):
        # the divisor is zscore_fit's std of the evaluated split, bit for bit:
        # one definition of a split's scale, summed unit by unit as training
        # sums it
        rng = np.random.default_rng(4)
        times = np.arange(20.0)
        trajs = [Trajectory(unit_id=u, times=times, y=rng.normal(3.0, 2.0, (20, 2)),
                            mask=rng.uniform(size=(20, 2)) < 0.8, a=np.zeros((20, 1)))
                 for u in range(60)]
        scales, binned = [], evaluate._binned_rmse
        monkeypatch.setattr(evaluate, "_binned_rmse",
                            lambda *args: scales.append(args[-1]) or binned(*args))
        grid_of(trajs, [5.0, 9.0], [3.0, 6.0], oracle_predict(trajs))
        want = zscore_fit(trajs).std.tobytes()
        assert len(scales) == 2 and all(s.tobytes() == want for s in scales)

    @pytest.mark.parametrize("std", [0.0, np.nan])
    def test_bad_scale_is_data_error_before_any_forecast(self, monkeypatch, std):
        # the split's own std is the RMSE scale: 0 for a constant outcome,
        # and undefined (NaN) for one observed entry; either is a data error
        # before any forecast is made (raw_forecasts is not callable here)
        monkeypatch.setattr(evaluate, "raw_forecasts", None)
        trajs, _ = linear_trajs()
        for tr in trajs:
            if std == 0.0:
                tr.y[:] = 1.0
            else:
                tr.mask[:] = 0.0
        trajs[0].mask[0] = 1.0
        with pytest.raises(DataError, match="component 0 has zero spread" if std == 0.0
                           else "component 0: fewer than 2 observations"):
            rmse_grid(trajs, [4.0], [2.0], params=None, stats=identity_stats(1), int_cfg=None)

    def test_mean_predictor_matches_bin_sd_ratio(self, grid_of):
        trajs, _ = linear_trajs(n=40, seed=2)
        times, = (trajs[0].times,)
        ys = np.stack([tr.y for tr in trajs], axis=1)
        gmean = ys.mean()

        def predict(record, k, j):
            return np.full((j - k,) + record.y.shape[1:], gmean)

        grid = grid_of(trajs, [4.0], [2.0], predict)
        fut = (times > 4.0) & (times <= 6.0)
        bin_rms = np.sqrt(np.mean((ys[fut] - gmean) ** 2))
        expected = bin_rms / ys.std()
        assert abs(grid.values[0, 0, 0] - expected) < 0.15

    def test_deterministic(self, grid_of):
        trajs, _ = linear_trajs(seed=3, noise_sd=0.1)
        p = oracle_predict(trajs)
        g1 = grid_of(trajs, [4.0], [2.0], p)
        g2 = grid_of(trajs, [4.0], [2.0], p)
        np.testing.assert_array_equal(g1.values, g2.values)

    def test_empty_bin_is_nan_not_zero(self, grid_of):
        trajs, _ = linear_trajs(T=6)
        # horizon 10 reaches past the record: second bin (5, 14] has points
        # only up to t=5; bin (15,...] empty
        grid = grid_of(trajs, [4.0], [1.0, 20.0, 30.0], oracle_predict(trajs))
        assert grid.counts[0, 2, 0] == 0
        assert np.isnan(grid.values[0, 2, 0])

    def test_matches_bruteforce_recomputation(self, grid_of):
        trajs, _ = linear_trajs(n=6, seed=4, noise_sd=0.3)
        times = trajs[0].times
        ys = np.stack([tr.y for tr in trajs], axis=1)
        rng = np.random.default_rng(5)
        noise = rng.normal(0, 0.2, size=ys.shape)

        def predict(record, k, j):
            return record.y[k:j] + noise[k:j]

        t_c, hs = 4.0, np.array([2.0, 5.0])
        grid = grid_of(trajs, [t_c], hs, predict)
        sd = ys.std()
        lo = [t_c, t_c + 2.0]
        hi = [t_c + 2.0, t_c + 5.0]
        for k in range(2):
            sel = (times > lo[k]) & (times <= hi[k])
            ref = np.sqrt(np.mean(noise[sel] ** 2)) / sd
            assert abs(grid.values[0, k, 0] - ref) < 1e-12

    def test_scaling_invariance(self, grid_of):
        trajs, _ = linear_trajs(n=6, seed=6)
        rng = np.random.default_rng(7)
        ys = np.stack([tr.y for tr in trajs], axis=1)
        noise = rng.normal(0, 0.2, size=ys.shape)

        def make_predict(c):
            def predict(record, k, j):
                return record.y[k:j] + c * noise[k:j]
            return predict

        g1 = grid_of(trajs, [4.0], [3.0], make_predict(1.0))
        scaled = [Trajectory(unit_id=t.unit_id, times=t.times, y=5.0 * t.y,
                             mask=t.mask, a=t.a) for t in trajs]
        g2 = grid_of(scaled, [4.0], [3.0], make_predict(5.0))
        np.testing.assert_allclose(g1.values, g2.values, rtol=1e-12)

    def test_longer_assimilation_helps_linear_system(self, grid_of):
        # least-squares line fit from the seen window: more data, better fit
        trajs, _ = linear_trajs(n=10, seed=8, noise_sd=0.5)

        def predict(record, k, j):
            preds = np.zeros((j - k,) + record.y.shape[1:])
            for i in range(record.y.shape[1]):
                c, b = np.polyfit(record.times[:k], record.y[:k, i, 0], 1)
                preds[:, i, 0] = b + c * record.times[k:j]
            return preds

        grid = grid_of(trajs, [2.0, 5.0, 8.0], [2.0], predict)
        vals = grid.values[:, 0, 0]
        assert vals[2] < vals[1] < vals[0]


class TestSharedEncoder:
    @settings(max_examples=40, deadline=None)
    @given(d_y=st.integers(1, 2), d_a=st.integers(0, 2), m=st.integers(1, 2),
           layers=st.integers(0, 2), T=st.integers(3, 8), n=st.integers(1, 3),
           max_horizon=st.sampled_from([None, 1.5, 4.0]), seed=st.integers(0, 2**16))
    def test_one_pass_equals_reencoding_each_decision_time(self, d_y, d_a, m, layers, T, n,
                                                           max_horizon, seed):
        # rmse_grid and evaluate_loss against a fresh encode per decision
        # time, bit for bit: missing y entries, decision times on and
        # between the grid times, one before the first time (no history) and
        # one at the last (no target), and a repeated time
        rng = np.random.default_rng(seed)
        cfg = ObsNodeConfig(d_y=d_y, m=m, d_a=d_a, phi_hidden_dim=3, phi_layers=layers,
                            encoder_hidden_dim=3)
        params = ObsNodeParams(cfg, rng)
        for t in params.tensors():
            t.data = rng.normal(0.0, 0.5, size=t.data.shape)
        times = np.cumsum(rng.uniform(0.5, 2.0, size=T))
        mask = (rng.uniform(size=(T, n, d_y)) < 0.7).astype(float)
        mask[:2] = 1.0
        y = rng.normal(size=(T, n, d_y)) * mask
        a = rng.uniform(0.0, 2.0, size=(T, n, d_a))
        trajs = [Trajectory(unit_id=u, times=times, y=y[:, u], mask=mask[:, u], a=a[:, u])
                 for u in range(n)]
        between = times[:-1] + rng.uniform(0.1, 0.9, size=T - 1) * np.diff(times)
        t_cs = [times[0] - 1.0, times[-1], times[1], between[0], between[-1], times[1]]
        horizons = np.cumsum(rng.uniform(0.5, 3.0, size=2))
        stats = NormStats(rng.normal(size=d_y), rng.uniform(0.5, 2.0, size=d_y))
        int_cfg = params.int_cfg = IntegrationConfig(step_size=0.3)

        grid = rmse_grid(trajs, t_cs, horizons, params, stats, int_cfg)
        ref = reencoded_grid(trajs, t_cs, horizons, params, stats, int_cfg)
        assert grid.values.tobytes() == ref.values.tobytes()
        assert np.array_equal(grid.counts, ref.counts)
        assert (grid.counts[0] == 0).all() and (grid.counts[-1] == 0).all()

        # evaluate_loss takes only decision times with history and a target
        tcfg = TrainConfig(decision_time_grid=t_cs, t_f=times[-1] + 1.0, int_step=0.3,
                           max_horizon=max_horizon)
        scored = [t_c for t_c in t_cs if decision_split(times, t_c, max_horizon) is not None]
        sigma2 = rng.uniform(0.5, 2.0, size=d_y)
        if scored:
            loss = evaluate_loss(trajs, params, sigma2, scored, tcfg)
            assert np.float64(loss).tobytes() == np.float64(
                reencoded_loss(trajs, params, sigma2, scored, tcfg)).tobytes()
        no_history = re.escape(f"val decision time {float(t_cs[0])!r} has no history")
        with pytest.raises(ConfigError, match=no_history):
            evaluate_loss(trajs, params, sigma2, t_cs, tcfg)


def test_forecasts_are_in_the_records_units():
    # moving the outcomes and the norm stats to the units s y + c moves
    # every forecast the same way: the model forecasts in z-scored units,
    # and raw_forecasts reads them back in the record's
    trajs, _ = linear_trajs(n=3, T=9, d_y=2, seed=1)
    params = ObsNodeParams(ObsNodeConfig(d_y=2, m=2, d_a=1, phi_hidden_dim=4,
                                         encoder_hidden_dim=3), np.random.default_rng(7))
    record = stack_units(trajs)
    stats = NormStats([0.5, -1.0], [2.0, 0.5])
    int_cfg = IntegrationConfig(step_size=0.5)
    pair = decision_split(record.times, 4.0)
    base = raw_forecasts(record, [pair], params, stats, int_cfg)[0]
    s, c = 4.0, 3.0
    moved = History(record.times, s * record.y + c, record.mask, record.a)
    got = raw_forecasts(moved, [pair], params, NormStats(s * stats.mean + c, s * stats.std),
                        int_cfg)[0]
    np.testing.assert_allclose(got, s * base + c, rtol=1e-12, atol=1e-12)


def test_inference_keeps_no_backward_state(monkeypatch):
    # with every activation's keep (what its VJP reads besides y, the leaky
    # ReLU's mask here) made to raise, the untaped rmse_grid and validation
    # loss still complete, and so does a taped batch's forward pass: no
    # forward pass builds the state a backward pass reads. The taped
    # batch's tape.backward rebuilds it.
    def backward_only(x):
        raise AssertionError("keep called")

    for kind, (fwd, _, vjp) in list(ad.ACTIVATIONS.items()):
        monkeypatch.setitem(ad.ACTIVATIONS, kind, (fwd, backward_only, vjp))
    rng = np.random.default_rng(0)
    trajs, _ = linear_trajs(n=4, T=9, d_y=1, seed=3)
    params = ObsNodeParams(ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=4,
                                         encoder_hidden_dim=3), rng)
    for t in params.tensors():
        t.data = rng.normal(0.0, 0.5, size=t.data.shape)
    int_cfg = params.int_cfg = IntegrationConfig(step_size=0.5)
    grid = rmse_grid(trajs, [2.0, 5.0], [2.0, 4.0], params, identity_stats(1), int_cfg)
    assert grid.counts.any()
    tcfg = TrainConfig(decision_time_grid=[2.0, 5.0], t_f=12.0, int_step=0.5)
    assert np.isfinite(evaluate_loss(trajs, params, np.ones(1), [2.0, 5.0], tcfg))
    record = stack_units(trajs)
    with Tape() as tape:
        loss = _batch_loss(record, *decision_split(record.times, 2.0), params, np.ones(1),
                           int_cfg)
        assert np.isfinite(loss.data)
        with pytest.raises(AssertionError, match="keep called"):
            tape.backward(loss)


def test_single_time_records_give_an_empty_grid():
    # no decision time has both history and a target, so nothing is
    # forecast
    trajs = [Trajectory(unit_id=i, times=np.zeros(1), y=np.full((1, 1), 1.0 + i),
                        mask=np.ones((1, 1)), a=np.zeros((1, 1))) for i in range(3)]
    params = ObsNodeParams(ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=3,
                                         encoder_hidden_dim=3), np.random.default_rng(0))
    grid = rmse_grid(trajs, [0.0, 1.0], [1.0], params, identity_stats(1),
                     IntegrationConfig(step_size=0.5))
    assert not grid.counts.any() and np.isnan(grid.values).all()


class TestBins:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=30),
           t_c=st.floats(-5.0, 60.0),
           widths=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 16))
    def test_bins_partition_the_window(self, steps, t_c, widths, seed):
        # every target of the decision window lands in exactly one horizon
        # bin, including times that sit on a bin edge up to rounding
        times = np.cumsum(steps)
        horizons = np.cumsum(widths)
        on_edge = t_c + horizons[seed % horizons.size]
        times = np.unique(np.append(times, [on_edge, t_c]))
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=(times.size, 3, 2)).astype(float)
        y = rng.normal(size=mask.shape)
        k, j = decision_split(times, t_c, horizons[-1])
        record = History(times, y, mask, np.zeros((times.size, 3, 0)))
        _, counts = _binned_rmse(record, k, j, y[k:j], t_c, horizons, np.ones(2))
        np.testing.assert_array_equal(counts.sum(axis=0),
                                      mask[k:j].sum(axis=(0, 1)))

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=30),
           t_c=st.floats(-5.0, 60.0),
           widths=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=6),
           nudge=st.sampled_from([-2e-9, -1e-9, 0.0, 5e-10, 1e-9, 2e-9]),
           seed=st.integers(0, 2 ** 16))
    def test_slices_equal_the_masked_bins(self, steps, t_c, widths, nudge, seed):
        # the runs that decision_split ends give the values and counts of
        # bins picked by mask, bit for bit, with grid times within 1e-9 of
        # every edge
        horizons = np.cumsum(widths)
        times = np.unique(np.concatenate([np.cumsum(steps), [t_c], t_c + horizons + nudge]))
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=(times.size, 3, 2)).astype(float)
        y = rng.normal(size=mask.shape)
        scale = rng.uniform(0.5, 2.0, size=2)
        pair = decision_split(times, t_c, horizons[-1])
        assume(pair is not None)  # rmse_grid scores only a decision with a target
        k, j = pair
        pred = y[k:j] + rng.normal(size=y[k:j].shape)
        record = History(times, y, mask, np.zeros((times.size, 3, 0)))
        values, counts = _binned_rmse(record, k, j, pred, t_c, horizons, scale)
        ref_values, ref_counts = masked_binned_rmse(times[k:j], pred, y[k:j], mask[k:j],
                                                    t_c, horizons, scale)
        assert values.tobytes() == ref_values.tobytes()
        assert np.array_equal(counts, ref_counts)


class TestComponentMean:
    def test_nanmean_without_the_empty_cell_warning(self):
        vals = np.random.default_rng(0).uniform(size=(3, 2, 3))
        vals[0, 1, :] = np.nan
        vals[1, 0, 1:] = np.nan
        vals[2, 1, 0] = np.nan
        grid = RmseGrid(np.arange(3.0), np.array([1.0, 2.0]), vals,
                        np.ones(vals.shape, int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = grid.component_mean()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = np.nanmean(vals, axis=2)
        cells = ~np.isnan(expected)
        assert cells.sum() == 5
        np.testing.assert_array_equal(np.isnan(mean), ~cells)
        assert mean[cells].tobytes() == expected[cells].tobytes()


class TestGridCsv:
    def test_row_count_and_roundtrip(self, tmp_path):
        vals = np.array([[[0.5], [np.nan]], [[0.7], [1.2]]])
        counts = np.array([[[3], [0]], [[4], [2]]])
        g = RmseGrid(np.array([1.0, 2.0]), np.array([1.0, 2.0]), vals, counts)
        write_grid_csvs(g, tmp_path)
        path = tmp_path / "rmse_grid.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "t_c,horizon,component,rmse,n_points"
        assert len(lines) == 5
        assert (tmp_path / "rmse_grid_mean.csv").read_text().splitlines() == [
            "t_c,horizon,rmse", "1.0,1.0,0.5", "1.0,2.0,", "2.0,1.0,0.7", "2.0,2.0,1.2"]
        back = read_grid_csv(path)
        np.testing.assert_array_equal(back.assimilation_times, g.assimilation_times)
        np.testing.assert_array_equal(back.counts, counts)
        np.testing.assert_array_equal(np.isnan(back.values), np.isnan(vals))
        np.testing.assert_array_equal(back.values[~np.isnan(vals)],
                                      vals[~np.isnan(vals)])

    def test_absent_bin_row(self, tmp_path):
        vals = np.array([[[np.nan]]])
        g = RmseGrid(np.array([1.0]), np.array([1.0]), vals,
                     np.zeros((1, 1, 1), int))
        write_grid_csvs(g, tmp_path)
        row = (tmp_path / "rmse_grid.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "" and row[4] == "0"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DataError):
            read_grid_csv(path)


class TestPgm:
    def test_pixel_dump(self, tmp_path):
        vals = np.array([[[0.0], [1.0], [0.5], [2.5]],
                         [[np.nan], [0.25], [0.0], [1.0]]])
        g = RmseGrid(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0, 4.0]), vals,
                     np.ones((2, 4, 1), int))
        path = tmp_path / "grid.pgm"
        write_grid_pgm(g, path, 0)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 4" and lines[2] == "255"
        # largest horizon on top, assimilation times left to right; RMSE 0 ->
        # white (255), RMSE at or above the cap of 1 -> black (0), an absent
        # (NaN) bin -> black
        assert lines[3:] == ["0 0", "128 255", "0 191", "255 0"]


def test_nonfinite_control_is_a_data_error():
    # a NaN knot value is bad input, refused where the path is built, not
    # a state that turns non-finite mid-solve
    trajs, _ = linear_trajs(n=3, T=9, d_y=2, seed=1)
    params = ObsNodeParams(ObsNodeConfig(d_y=2, m=2, d_a=1, phi_hidden_dim=4,
                                         encoder_hidden_dim=3), np.random.default_rng(7))
    record = stack_units(trajs)
    pair = decision_split(record.times, 4.0)
    with pytest.raises(DataError, match="non-finite"):
        raw_forecasts(record, [pair], params, identity_stats(2), IntegrationConfig(step_size=0.5),
                      control=ControlPath([4.0, 6.0], [[0.5], [np.nan]]))


class TestCounterfactual:
    def test_oracle_like_forecaster_scores_well(self):
        # the simulator's noiseless truth, as its own forecast, scores
        # exactly 0.0 in every bin with a point; shifted by a constant c in
        # component d, that component reads |c| / scale[d] and the other
        # still 0.0
        from obsnode.simulate import CancerSimConfig, sample_cohort_params, simulate_cancer_cohort

        cfg = CancerSimConfig(n_patients=3, n_cycles=4, dt=0.5, obs_every=3.0, noise=False,
                              seed=1)
        ids = [0, 1, 2]
        truths = simulate_cancer_cohort(sample_cohort_params(cfg, ids), cfg, ids)
        record = stack_units(truths)
        scale = zscore_fit(truths).std
        t_c, horizons = 30.0, np.array([15.0, 30.0, 60.0])
        k, j = decision_split(record.times, t_c, horizons[-1])
        values, counts = _binned_rmse(record, k, j, record.y[k:j].copy(), t_c, horizons, scale)
        present = counts > 0
        assert present.all()
        assert np.all(values == 0.0)
        for d, c in ((0, 0.25), (1, -3.0)):
            pred = record.y[k:j].copy()
            pred[..., d] += c
            values, _ = _binned_rmse(record, k, j, pred, t_c, horizons, scale)
            np.testing.assert_allclose(values[:, d], abs(c) / scale[d], rtol=1e-12)
            assert np.all(values[:, 1 - d] == 0.0)

    def test_untrained_model_scores_finite_values(self):
        # the counterfactual scoring runs end to end on a tiny cohort with
        # an untrained model and gives finite, nonnegative values
        from obsnode.model import ObsNodeConfig, ObsNodeParams
        from obsnode.simulate import CancerSimConfig
        from obsnode.train import NormStats

        cfg = CancerSimConfig(n_patients=3, n_cycles=2, dt=0.5, seed=1)
        mcfg = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=8,
                             phi_layers=1, encoder_hidden_dim=8)
        params = ObsNodeParams(mcfg, np.random.default_rng(0))
        stats = NormStats(mean=np.array([1.0, 70.0]), std=np.array([1.0, 5.0]))
        grid = counterfactual_rmse(params, stats, cfg, [0, 1, 2],
                                   schedule_fn=lambda s: np.zeros_like(s),
                                   t_c=30.0, horizons=[15.0, 30.0],
                                   int_cfg=IntegrationConfig(step_size=0.5))
        assert grid.values.shape == (1, 2, 2)
        assert np.isfinite(grid.values).all()
        assert np.all(grid.values[np.isfinite(grid.values)] >= 0)
