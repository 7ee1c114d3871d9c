import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import BSpline

from obsnode.autodiff import _sigmoid
from obsnode.errors import ConfigError, DataError, NumericError
from obsnode.simulate import (C_MAX, D_MAX_GY, DIAM_WINDOW_DAYS, MAX_SIM_STEPS,
                              RFF_CHUNK, V_MIN, W_MIN, CancerSimConfig, SemiSynthConfig,
                              Trajectory, _bspline, _bspline_mixture, _hour_count,
                              _patient_rng, _split_thirds, diameter, dose_policy,
                              generate_cancer_dataset, generate_semi_synthetic,
                              read_dataset, rff_draw, rff_eval, sample_cohort_params,
                              sample_patient_params, simulate_cancer_cohort,
                              write_dataset)
from support import break_manifest, mean_patient, plain_record, rff_function


def tiny_cancer_cfg(**kw):
    kw.setdefault("n_patients", 6)
    kw.setdefault("n_cycles", 3)
    return CancerSimConfig(**kw)


class TestPatientParams:
    def test_beta_r_is_tenth_of_alpha_r(self):
        for seed in range(20):
            p = sample_patient_params(np.random.default_rng(seed))
            assert p.beta_r == p.alpha_r / 10.0

    def test_rate_parameters_positive(self):
        for seed in range(50):
            p = sample_patient_params(np.random.default_rng(seed))
            for v in (p.rho, p.alpha_r, p.beta_c, p.rho_w, p.alpha_wr,
                      p.beta_wc, p.lam):
                assert v >= 0.0

    def test_chemo_kill_sample_mean(self):
        rng = np.random.default_rng(123)
        vals = [sample_patient_params(rng).beta_c for _ in range(10_000)]
        assert abs(np.mean(vals) - 0.028) < 3 * 0.0007 / 100

    def test_carrying_capacity_is_initial_weight(self):
        p = sample_patient_params(np.random.default_rng(7))
        assert p.K_w == p.w0
        assert 50.0 <= p.w0 <= 90.0
        assert 0.5 <= p.v0 <= 3.0


class TestDosePolicy:
    def setup_method(self):
        self.p = mean_patient()

    def test_midpoint_gives_half_doses(self):
        c, d = dose_policy(6.5, gamma=4.0, patient=self.p)
        assert c == pytest.approx(7.0)
        assert d == pytest.approx(1.5)

    def test_saturation_near_max_diameter(self):
        self.p.alpha_c_dose = 4.0
        c, _ = dose_policy(13.0, gamma=8.0, patient=self.p)
        assert abs(c - C_MAX * 1.0 / (1.0 + np.exp(-16.0))) < 1e-9
        assert c > 13.99

    def test_confounding_strength_monotone(self):
        gaps = []
        for g in (1.0, 2.0, 4.0, 8.0):
            c_hi, _ = dose_policy(9.0, g, self.p)
            c_lo, _ = dose_policy(4.0, g, self.p)
            gaps.append(c_hi - c_lo)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_doses_within_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            c, d = dose_policy(rng.uniform(0, 13), rng.uniform(1, 8), self.p)
            assert 0.0 < c < C_MAX and 0.0 < d < D_MAX_GY


class TestCancerSimulation:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CancerSimConfig(dt=7.0)  # does not divide 30
        with pytest.raises(ConfigError):
            CancerSimConfig(gamma=0.5)

    def test_strides_are_whole_steps_to_a_relative_tolerance(self):
        # 30 / 0.1 is 299.99999999999994 in floats, a whole 300 steps; a
        # stride below one step is rejected, not rounded to zero
        CancerSimConfig(dt=0.1, obs_every=0.30000000000000004)
        with pytest.raises(ConfigError, match="obs_every"):
            CancerSimConfig(obs_every=1e-10)

    def test_gompertz_fixed_point(self):
        cfg = tiny_cancer_cfg(noise=False)
        p = mean_patient()
        p.v0 = p.K
        p.beta_c = p.alpha_r = p.beta_r = 0.0
        tr, = simulate_cancer_cohort([p], cfg, [0])
        np.testing.assert_allclose(tr.y[:, 0], p.K, rtol=0, atol=1e-12)

    def test_untreated_growth_matches_fine_reference(self):
        # noise and doses off: compare Euler at dt=0.25 against a dt=1/256
        # reference of the same Gompertz ODE
        cfg = tiny_cancer_cfg(noise=False)
        p = mean_patient()
        p.v0 = 1.0
        p.beta_c = p.alpha_r = p.beta_r = 0.0
        tr, = simulate_cancer_cohort([p], cfg, [0])
        assert np.all(np.diff(tr.y[:, 0]) > 0)  # strictly growing toward K

        t_end = cfg.n_cycles * cfg.cycle_days
        dt = 1.0 / 256.0
        v = 1.0
        for _ in range(int(round(t_end / dt))):
            v += p.rho * np.log(p.K / v) * v * dt
        assert abs(tr.y[-1, 0] - v) < 1e-3

    def test_max_chemo_shrinks_tumor_initially(self):
        cfg = tiny_cancer_cfg(noise=False, n_cycles=1)
        p = mean_patient()
        p.v0 = 1.0
        schedule = np.array([[C_MAX, 0.0]])
        tr, = simulate_cancer_cohort([p], cfg, [0], dose_schedule=schedule[None])
        assert tr.y[1, 0] < tr.y[0, 0]

    def test_same_seed_bit_identical(self):
        cfg = tiny_cancer_cfg(seed=5)
        a = generate_cancer_dataset(cfg)
        b = generate_cancer_dataset(cfg)
        for split in ("train", "val", "test"):
            for ta, tb in zip(a[split], b[split]):
                assert (ta.y == tb.y).all() and (ta.a == tb.a).all()

    def test_split_sizes_and_disjoint_ids(self):
        cfg = tiny_cancer_cfg(n_patients=9)
        splits = generate_cancer_dataset(cfg)
        assert [len(splits[s]) for s in ("train", "val", "test")] == [3, 3, 3]
        ids = [tr.unit_id for s in splits.values() for tr in s]
        assert sorted(ids) == list(range(9))

    def test_dose_override_keeps_physiological_noise(self):
        # zero-dose counterfactual with the same noise stream: outcomes match
        # the factual run exactly until the first nonzero factual dose acts
        cfg = tiny_cancer_cfg(n_cycles=2, seed=3)
        p = sample_patient_params(np.random.default_rng(2))
        fact, = simulate_cancer_cohort([p], cfg, [9])
        redo, = simulate_cancer_cohort([p], cfg, [9], dose_schedule=fact.latents[None])
        np.testing.assert_array_equal(fact.y, redo.y)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), n_cycles=st.integers(2, 4),
           cycle_days=st.sampled_from([5.0, 10.0, 30.0]), data=st.data(),
           seed=st.integers(0, 2 ** 16))
    def test_schedule_changed_from_a_cycle_leaves_the_days_before_it(
            self, n, n_cycles, cycle_days, data, seed):
        # no look-ahead: a dose schedule that departs from the factual one
        # from cycle k on reuses the noise stream, so every record time
        # before that cycle's start keeps its y and a bitwise; from the
        # start on the new doses are recorded
        cfg = tiny_cancer_cfg(n_patients=n, n_cycles=n_cycles, cycle_days=cycle_days,
                              dt=0.5, seed=seed)
        ids = list(range(n))
        patients = sample_cohort_params(cfg, ids)
        fact = simulate_cancer_cohort(patients, cfg, ids)
        k = data.draw(st.integers(1, n_cycles - 1), label="k")
        schedule = np.stack([tr.latents for tr in fact])
        rng = np.random.default_rng(seed)
        schedule[:, k:] = rng.uniform(size=schedule[:, k:].shape) * [C_MAX, D_MAX_GY]
        alt = simulate_cancer_cohort(patients, cfg, ids, dose_schedule=schedule)
        before = fact[0].times < k * cycle_days
        for f, g in zip(fact, alt):
            assert f.y[before].tobytes() == g.y[before].tobytes()
            assert f.a[before].tobytes() == g.a[before].tobytes()
            assert not np.array_equal(f.a[~before][0], g.a[~before][0])

    def test_treatments_recorded_per_cycle(self):
        cfg = tiny_cancer_cfg(n_cycles=2)
        p = sample_patient_params(np.random.default_rng(0))
        tr, = simulate_cancer_cohort([p], cfg, [0])
        # constant within a cycle, one change allowed at the boundary
        first = tr.a[tr.times < 30.0]
        assert np.all(first == first[0])

    def test_diameter_map(self):
        assert diameter(np.pi / 6.0) == pytest.approx(1.0)


class TestRff:
    def test_deterministic_given_rng(self):
        xs = np.linspace(-2, 2, 50)[:, None]
        f1 = rff_draw(np.random.default_rng(3), 1, 20)
        f2 = rff_draw(np.random.default_rng(3), 1, 20)
        np.testing.assert_array_equal(rff_eval(xs, 1.0, *f1), rff_eval(xs, 1.0, *f2))

    def test_bounded_by_weight_sum(self):
        rng = np.random.default_rng(4)
        n = 30
        f = rff_draw(rng, 2, n)
        xs = np.random.default_rng(5).normal(size=(1000, 2))
        # recover the weights bound by probing: |f| <= sqrt(2/n) sum|w|
        vals = rff_eval(xs, 0.7, *f)
        w_bound = np.sqrt(2.0 / n) * np.sqrt(n) * 10  # loose uniform bound
        assert np.max(np.abs(vals)) < w_bound

    def test_smoothness_scales_with_lengthscale(self):
        xs = np.arange(0.0, 72.0)[:, None]
        f = rff_draw(np.random.default_rng(1), 1, 50)
        dr = np.mean(np.abs(np.diff(rff_eval(xs, 1.0, *f))))
        ds = np.mean(np.abs(np.diff(rff_eval(xs, 20.0, *f))))
        assert ds < dr

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 7), st.integers(1, 6),
           st.lists(st.integers(1, 3), max_size=2), st.booleans(), st.integers(0, 2**16))
    def test_batched_paths_are_bitwise_one_path_each(self, input_dim, n_features, T,
                                                      batch, rowwise, seed):
        # each leading index of the draws, with its own lengthscale, and of
        # the points is the one-path reference on its own points
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**32, size=batch)
        ls = rng.uniform(0.5, 20.0, size=batch)
        xs = rng.normal(size=(*batch, T, input_dim)) * 5.0
        draws = [np.empty((*batch,) + shape) for shape in
                 ((n_features, input_dim), (n_features,), (n_features,))]
        want = np.empty((*batch, T))
        for idx in np.ndindex(*batch):
            for out, draw in zip(draws, rff_draw(np.random.default_rng(seeds[idx]),
                                                 input_dim, n_features)):
                out[idx] = draw
            f = rff_function(np.random.default_rng(seeds[idx]), input_dim, n_features, ls[idx])
            want[idx] = (f(xs[idx], rowwise=True) if rowwise else f(xs[idx]))
        got = rff_eval(xs, ls[..., None, None], *draws, rowwise=rowwise)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def mixture_splines(draw):
    """(knots, coef, points): one of the trend mixture's knot layouts over a
    random horizon, its coefficients or other ones, and points on the
    hourly grid, on and next to the knots, and in and outside the support."""
    horizon = draw(st.floats(1e-3, 500.0))
    i = draw(st.integers(0, 2))
    lo, hi = horizon * i / 3, horizon * (i + 2) / 4
    knots = np.concatenate([[lo] * 4, [(lo + hi) / 2], [hi] * 4])
    # signed zeros among the coefficients make zero sums whose sign depends
    # on the order of the additions
    coef = draw(st.one_of(
        st.just(np.array([0, 0.3, 1.0, 0.3, 0.0])),
        hnp.arrays(np.float64, 5, elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, 5, elements=st.sampled_from([0.0, -0.0, -1.0, 0.3]))))
    spread = hnp.arrays(np.float64, st.integers(0, 20),
                        elements=st.floats(-horizon, 2 * horizon))
    x = np.concatenate([np.arange(0.0, horizon + 0.5, 1.0), knots,
                        np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                        [-1.0, 2 * horizon + 1.0], draw(spread)])
    return knots, coef, x


class TestBSpline:
    @settings(max_examples=300, deadline=None)
    @given(mixture_splines())
    def test_bitwise_equal_to_scipy(self, case):
        knots, coef, x = case
        want = np.nan_to_num(BSpline(knots, coef, 3, extrapolate=False)(x), nan=0.0)
        np.testing.assert_array_equal(_bspline(knots, coef, x).view(np.int64),
                                      want.view(np.int64))


class TestSemiSynthetic:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SemiSynthConfig(w=0)
        with pytest.raises(ConfigError):
            SemiSynthConfig(gamma_A=(0.3,))

    @pytest.mark.parametrize("eta_sd", [0.0, -0.005])
    def test_nonpositive_noise_sd_is_config_error(self, eta_sd):
        with pytest.raises(ConfigError, match="eta_sd must be positive"):
            SemiSynthConfig(eta_sd=eta_sd)

    def test_overflowing_outcome_names_its_unit(self):
        # at alpha_g = 1e308 the trend-noise path of unit 1, not unit 0's,
        # overflows: a numeric failure of the simulator, not bad data
        cfg = SemiSynthConfig(n_patients=6, horizon_hours=12.0, alpha_g=1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=r"^unit 1: non-finite outcome$"):
            generate_semi_synthetic(cfg)

    def test_shapes_and_grid(self):
        cfg = SemiSynthConfig(n_patients=6, seed=1)
        splits = generate_semi_synthetic(cfg)
        tr = splits["train"][0]
        assert tr.times.size == 73
        assert tr.y.shape == (73, 2)
        assert tr.a.shape == (73, 2)
        assert tr.confounders.shape == (73, 3)
        assert set(np.unique(tr.a)) <= {0.0, 1.0}

    def test_noise_only_when_signals_off(self):
        cfg = SemiSynthConfig(n_patients=20, alpha_s=0.0, alpha_g=0.0,
                              alpha_phi=0.0, beta=0.0, seed=2)
        splits = generate_semi_synthetic(cfg)
        vals = np.concatenate([tr.y.ravel() for s in splits.values() for tr in s])
        assert 0.0045 < np.std(vals) < 0.0055

    def test_zero_effect_size_leaves_outcomes_untreated(self):
        base = dict(n_patients=4, seed=3)
        a = generate_semi_synthetic(SemiSynthConfig(beta=0.0, **base))
        b = generate_semi_synthetic(SemiSynthConfig(beta=0.0, gamma_A=(0.0, 0.0),
                                                    gamma_eps=(0.0, 0.0), **base))
        # with beta = 0 treatments do not feed back into outcomes, so the
        # outcome paths agree even under different treatment models
        for ta, tb in zip(a["train"], b["train"]):
            np.testing.assert_allclose(ta.y, tb.y, atol=1e-12)

    def test_unconfounded_treatment_frequency(self):
        cfg = SemiSynthConfig(n_patients=40, gamma_A=(0.0, 0.0),
                              gamma_eps=(0.0, 0.0), bias=(-2.0, -2.0), seed=4)
        splits = generate_semi_synthetic(cfg)
        A = np.concatenate([tr.a for s in splits.values() for tr in s])
        freq = A.mean()
        assert abs(freq - 1.0 / (1.0 + np.exp(2.0))) < 0.01

    def test_effect_positive_and_bounded(self):
        cfg = SemiSynthConfig(n_patients=5, beta=1.0, seed=5)
        treated = generate_semi_synthetic(cfg)
        untreated = generate_semi_synthetic(
            SemiSynthConfig(n_patients=5, beta=0.0, seed=5))
        bound = cfg.beta * sum(1.0 / u ** 2 for u in range(1, cfg.w + 2))
        for tt, tu in zip(treated["train"], untreated["train"]):
            diff = tt.y - tu.y
            assert np.all(diff >= -1e-12)
            assert np.all(diff <= bound + 1e-12)

    @pytest.mark.parametrize("horizon", [0.4, 0.5, 0.6, 9.4, 9.5, 9.6, 72.0, 1e-300])
    def test_counted_hours_are_the_grid(self, horizon):
        # the cost bounds count the hours of the grid the simulator makes,
        # for fractions of an hour below, at and above one half
        grid = np.arange(0.0, horizon + 0.5, 1.0)
        units = flat(generate_semi_synthetic(
            SemiSynthConfig(n_patients=1, horizon_hours=horizon, nu=2)))
        assert _hour_count(horizon) == grid.size == units[0].times.size
        np.testing.assert_array_equal(units[0].times, grid)

    def test_a_fractional_horizon_counts_its_last_hour(self):
        # 0.6 h is a grid of 2 hours, so 588 patients ask for twice
        # MAX_SIM_STEPS random-feature products, and 294 for just under it
        base = dict(horizon_hours=0.6, nu=10_000)
        with pytest.raises(ConfigError, match=f"is 199920000 .*MAX_SIM_STEPS={MAX_SIM_STEPS}"):
            SemiSynthConfig(n_patients=588, **base)
        SemiSynthConfig(n_patients=294, **base)

    def test_determinism(self):
        cfg = SemiSynthConfig(n_patients=4, seed=6)
        a = generate_semi_synthetic(cfg)
        b = generate_semi_synthetic(cfg)
        for ta, tb in zip(a["test"], b["test"]):
            assert (ta.y == tb.y).all() and (ta.a == tb.a).all()


# ---------------------------------------------------------------------------
# The cohort simulators against per-patient scalar references
# ---------------------------------------------------------------------------

def reference_cancer_patient(params, config, rng, unit_id, dose_schedule=None):
    """One patient's Euler-Maruyama path in Python floats, drawing its noise
    step by step from `rng` when noise is on."""
    dt = config.dt
    steps_per_cycle = round(config.cycle_days / dt)
    n_steps = steps_per_cycle * config.n_cycles
    obs_stride = round(config.obs_every / dt)
    win = round(DIAM_WINDOW_DAYS / dt)

    v, w = params.v0, params.w0
    diam_hist = [diameter(v)]
    doses = np.zeros((config.n_cycles, 2))
    times, ys, treats = [], [], []

    c_dose = d_dose = 0.0
    for k in range(n_steps + 1):
        t = k * dt
        if k % steps_per_cycle == 0 and k < n_steps:
            cycle = k // steps_per_cycle
            if dose_schedule is not None:
                c_dose, d_dose = float(dose_schedule[cycle][0]), float(dose_schedule[cycle][1])
            else:
                d_bar = float(np.mean(diam_hist[-(win + 1):]))
                c_dose, d_dose = map(float, dose_policy(d_bar, config.gamma, params))
            doses[cycle] = (c_dose, d_dose)
        if k % obs_stride == 0:
            times.append(t)
            ys.append((v, w))
            treats.append((c_dose, d_dose))
        if k == n_steps:
            break

        eps_v = eps_w = 0.0
        if config.noise:
            eps_v = rng.normal(0.0, params.sigma_v)
            eps_w = rng.normal(0.0, params.sigma_w)
        rate_v = (params.rho * np.log(params.K / v) - params.beta_c * c_dose
                  - (params.alpha_r * d_dose + params.beta_r * d_dose ** 2) + eps_v)
        drift_w = (params.rho_w * w * (1.0 - w / params.K_w)
                   - params.beta_wc * c_dose - params.alpha_wr * d_dose
                   - params.lam * v + eps_w)
        v = max(v + rate_v * v * dt, V_MIN)
        w = max(w + drift_w * dt, W_MIN)
        if not (np.isfinite(v) and np.isfinite(w)):
            raise NumericError(f"unit {unit_id}: non-finite state at day {t + dt}")
        diam_hist.append(diameter(v))

    y = np.array(ys)
    return Trajectory(unit_id=unit_id, times=np.array(times), y=y,
                      mask=np.ones_like(y), a=np.array(treats), latents=doses)


def reference_semi_synthetic(config):
    """The semi-synthetic cohort simulated one patient, time and treatment
    at a time."""
    times = np.arange(0.0, config.horizon_hours + 0.5, 1.0)
    T = times.size
    d_y, d_a, d_eps = config.d_y, config.d_a, config.d_eps
    B = config.effect_matrix()

    ds_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    bsplines = [_bspline_mixture(ds_rng, config.horizon_hours) for _ in range(d_y)]
    phi_y = [rff_function(ds_rng, d_eps, config.nu, config.readout_lengthscale)
             for _ in range(d_y)]
    conf_idx = [np.array([0])] + [np.arange(1, d_eps)] * (d_a - 1)
    phi_a = [rff_function(ds_rng, len(idx), config.nu,
                          config.readout_lengthscale) for idx in conf_idx]

    trajs = []
    for uid in range(config.n_patients):
        prng, nrng = _patient_rng(config.seed, uid, 0), _patient_rng(config.seed, uid, 1)
        eps_fns = [rff_function(prng, 1, config.nu, config.eps_lengthscale)
                   for _ in range(d_eps)]
        eps = np.stack([fn(times[:, None]) for fn in eps_fns], axis=1)
        g_fns = [rff_function(prng, 1, config.nu, config.g_lengthscale)
                 for _ in range(d_y)]
        g = np.stack([fn(times[:, None]) for fn in g_fns], axis=1)

        eta = nrng.normal(0.0, config.eta_sd, size=(T, d_y))
        y_untreated = np.stack(
            [config.alpha_s * bsplines[j](times) + config.alpha_g * g[:, j]
             + config.alpha_phi * phi_y[j](eps) + eta[:, j]
             for j in range(d_y)], axis=1)

        y = np.zeros((T, d_y))
        A = np.zeros((T, d_a))
        P = np.zeros((T, d_a))
        for t in range(T):
            for l in range(d_a):
                affected = np.nonzero(B[l] > 0)[0]
                lo = max(t - config.w, 0)
                ybar = float(np.mean(y[lo:t][:, affected])) if t > 0 and affected.size \
                    else 0.0
                logit = (config.gamma_A[l] * ybar
                         + config.gamma_eps[l] * float(phi_a[l](eps[t, conf_idx[l]])[0])
                         + config.bias[l])
                P[t, l] = float(_sigmoid(logit))
                A[t, l] = float(nrng.uniform() < P[t, l])
            effect = np.zeros(d_y)
            for k in range(max(t - config.w, 0), t + 1):
                active = np.nonzero(A[k] == 1)[0]
                if active.size == 0:
                    continue
                decay = 1.0 / (t - k + 1) ** 2
                for j in range(d_y):
                    effect[j] += np.min(P[k, active] * B[active, j]) * decay
            y[t] = y_untreated[t] + effect

        trajs.append(Trajectory(unit_id=uid, times=times.copy(), y=y,
                                mask=np.ones_like(y), a=A, latents=P,
                                confounders=eps))
    return _split_thirds(trajs)


def assert_cohorts_equal(got, want):
    assert [tr.unit_id for tr in got] == [tr.unit_id for tr in want]
    for tg, tw in zip(got, want):
        for field in ("times", "y", "mask", "a", "latents", "confounders"):
            a, b = getattr(tg, field), getattr(tw, field)
            assert (a is None) == (b is None), field
            if a is not None:
                assert np.array_equal(a, b), f"unit {tg.unit_id}: {field} differs"


def flat(splits):
    return [tr for s in ("train", "val", "test") for tr in splits[s]]


# (cycle_days, dt): dt divides the cycle; the 6- and 10-day cycles are shorter
# than the 15-day diameter window, so consecutive dose windows overlap
CYCLE_STEPS = [(30.0, dt) for dt in (0.25, 0.5, 1.0, 2.0, 3.0)] + \
    [(10.0, dt) for dt in (0.5, 1.0, 2.0)] + [(6.0, dt) for dt in (1.0, 3.0)]


@st.composite
def cancer_cases(draw):
    cycle_days, dt = draw(st.sampled_from(CYCLE_STEPS))
    cfg = CancerSimConfig(
        n_patients=draw(st.integers(1, 5)), n_cycles=draw(st.integers(1, 3)),
        cycle_days=cycle_days, dt=dt, obs_every=dt * draw(st.integers(1, 4)),
        gamma=draw(st.floats(1.0, 8.0)), noise=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)))
    schedule = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        schedule = rng.uniform(0.0, 1.0, size=(cfg.n_patients, cfg.n_cycles, 2)) \
            * [C_MAX, D_MAX_GY]
    return cfg, schedule


@st.composite
def semi_configs(draw):
    """One patient with a few random features, or two to three evaluation
    chunks of one to three patients each, the last one maybe partial."""
    d_a, d_y, d_eps = (draw(st.integers(1, 3)) for _ in range(3))
    horizon = draw(st.sampled_from([1.0, 4.0, 9.5, 9.6, 12.0]))
    paths = np.arange(0.0, horizon + 0.5, 1.0).size * (d_eps + d_y)
    if draw(st.booleans()):
        n, nu = 1, draw(st.integers(1, 6))
    else:
        nu = RFF_CHUNK // (paths * draw(st.integers(1, 3)))
        chunk = RFF_CHUNK // (paths * nu)
        n = draw(st.integers(chunk + 1, 3 * chunk))
    coef = st.floats(-3.0, 3.0)
    return SemiSynthConfig(
        n_patients=n, horizon_hours=horizon, d_y=d_y, d_a=d_a, d_eps=d_eps,
        w=draw(st.integers(1, 4)), nu=nu,
        beta=draw(st.sampled_from([1.0, 0.5, 0.0, -1.0])),
        gamma_A=tuple(draw(coef) for _ in range(d_a)),
        gamma_eps=tuple(draw(coef) for _ in range(d_a)),
        bias=tuple(draw(coef) for _ in range(d_a)),
        seed=draw(st.integers(0, 2**16)))


class TestCohortMatchesReference:
    """The array cohorts reproduce the per-patient loops bit for bit."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cancer_cases())
    def test_cancer_cohort(self, case):
        cfg, schedule = case
        uids = list(range(cfg.n_patients))
        want = [reference_cancer_patient(
                    sample_patient_params(_patient_rng(cfg.seed, uid, 0)), cfg,
                    _patient_rng(cfg.seed, uid, 1), uid,
                    None if schedule is None else schedule[uid])
                for uid in uids]
        got = simulate_cancer_cohort(sample_cohort_params(cfg, uids), cfg, uids,
                                     dose_schedule=schedule)
        assert_cohorts_equal(got, want)
        if schedule is None:
            assert_cohorts_equal(flat(generate_cancer_dataset(cfg)), want)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(semi_configs())
    def test_semi_synthetic_cohort(self, cfg):
        assert_cohorts_equal(flat(generate_semi_synthetic(cfg)),
                             flat(reference_semi_synthetic(cfg)))

    def test_radio_dose_squared_in_python_floats(self):
        # 2.311181969547313 ** 2 in Python floats (C pow) and numpy's squaring
        # of it differ in the last bit, and for unit 1 so does the first step
        cfg = tiny_cancer_cfg(n_patients=1, n_cycles=1, noise=False)
        pats = sample_cohort_params(cfg, [1])
        schedule = np.array([[[0.0, 2.311181969547313]]])
        want = reference_cancer_patient(pats[0], cfg, None, 1, schedule[0])
        assert_cohorts_equal(simulate_cancer_cohort(pats, cfg, [1], schedule), [want])

    def test_cohort_units_draw_their_own_noise(self):
        # a unit's path depends on its id, not on its place in the cohort
        cfg = tiny_cancer_cfg(n_cycles=1, seed=4)
        pats = sample_cohort_params(cfg, [2, 0])
        both = simulate_cancer_cohort(pats, cfg, [2, 0])
        alone = simulate_cancer_cohort(pats[1:], cfg, [0])
        assert_cohorts_equal(both[1:], alone)


def dataset_digests(tmp_path, splits, cfg):
    write_dataset(tmp_path, splits, cfg, cfg.seed)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())}


class TestPinnedDatasetBytes:
    """sha256 of the files write_dataset writes for two small cohorts, as
    the per-patient simulators wrote them."""

    def test_cancer(self, tmp_path):
        cfg = CancerSimConfig(n_patients=4, n_cycles=2, dt=0.5, obs_every=3.0, seed=11)
        assert dataset_digests(tmp_path, generate_cancer_dataset(cfg), cfg) == {
            "manifest.json": "c5d2f62d7f6088f468bef5a178e4d4a49b441f586fc7a90f1ed26d417ca0dbf1",
            "test.jsonl": "4c07eabbdff79195fedf87f5536561ab887debe106ac133a1d4e0510ffddfe14",
            "train.jsonl": "f26bc149103b4ae41b713f907afd3ef7b04c9cf88524c611fcc9e92bddbc70e3",
            "val.jsonl": "765fb69b83e532a21f1a8d96ac672bff383ce8ccacfdd69cf071c86059405ac7",
        }

    def test_semi_synthetic(self, tmp_path):
        # three treatments, so two of them affect two components each
        cfg = SemiSynthConfig(n_patients=4, horizon_hours=24.0, d_y=3, d_a=3, d_eps=2,
                              w=3, gamma_A=(0.3, 0.2, 0.1), gamma_eps=(0.3, 0.1, 0.2),
                              bias=(-1.0, -1.5, -2.0), seed=11)
        assert dataset_digests(tmp_path, generate_semi_synthetic(cfg), cfg) == {
            "manifest.json": "e074715f580233bdba143177a11b3ca752af2a5824a11355e6a77ce5be59a377",
            "test.jsonl": "beb9f9c05d1e8aef50e5f5e2b02ccf236a5427aa9a7395d31777bb3f3b983906",
            "train.jsonl": "ace01d9748396f44d00feb74ad484abeb5a7df357d64b3f8f603af2415fc1d08",
            "val.jsonl": "f54abbf22bff16fceba05effd17687b30ecac0518f18f9ccc5963be4df17c5ca",
        }


def test_diverging_patient_names_its_unit_and_day():
    cfg = tiny_cancer_cfg(n_patients=3, n_cycles=1)
    pats = sample_cohort_params(cfg, range(3))
    pats[1] = replace(pats[1], rho=1e308)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match=r"^unit 1: non-finite state at day 0\.25$"):
        simulate_cancer_cohort(pats, cfg, range(3))


@st.composite
def written_splits(draw):
    """Splits of units whose consecutive times and masks are the same bits,
    the same values in other bits (-0.0 for 0.0), or other values of the
    same or another length; partially observed, and with and without
    latents and confounders."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    splits, uid = {}, 0
    for name in draw(st.sampled_from([("train",), ("train", "val", "test")])):
        units, times, mask = [], None, None
        for _ in range(draw(st.integers(0, 6))):
            T = draw(st.integers(2, 3))
            if times is None or times.size != T or draw(st.booleans()):
                times = np.arange(float(T))
                times[0] = draw(st.sampled_from([0.0, -0.0, -0.5]))
            if mask is None or len(mask) != T or draw(st.booleans()):
                mask = draw(hnp.arrays(np.float64, (T, 2),
                                       elements=st.sampled_from([1.0, 1.0, 0.0, -0.0])))
            units.append(Trajectory(
                unit_id=uid, times=times.copy(), mask=mask.copy(),
                y=rng.normal(size=(T, 2)) * 1e3, a=rng.normal(size=(T, 1)),
                latents=rng.normal(size=(T, 1)) if draw(st.booleans()) else None,
                confounders=rng.normal(size=(T, 2)) if draw(st.booleans()) else None))
            uid += 1
        splits[name] = units
    return splits


class TestDatasetIo:
    @settings(max_examples=80, deadline=None)
    @given(written_splits())
    def test_each_line_is_json_dumps_of_its_plain_record(self, splits):
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(tmp, splits, SemiSynthConfig(), 0)
            for name, units in splits.items():
                lines = (Path(tmp) / f"{name}.jsonl").read_text().splitlines(keepends=True)
                assert lines == [json.dumps(plain_record(tr)) + "\n" for tr in units]
            # and read_dataset, which checks the manifest, reads it back
            read, _ = read_dataset(tmp)
            assert {name: [tr.unit_id for tr in units] for name, units in read.items()} == \
                {name: [tr.unit_id for tr in units] for name, units in splits.items()}

    def test_roundtrip(self, tmp_path):
        cfg = SemiSynthConfig(n_patients=6, seed=7)
        splits = generate_semi_synthetic(cfg)
        write_dataset(tmp_path / "ds", splits, cfg, cfg.seed)
        loaded, manifest = read_dataset(tmp_path / "ds")
        assert manifest["seed"] == 7
        assert set(loaded) == {"train", "val", "test"}
        for s in splits:
            for ta, tb in zip(splits[s], loaded[s]):
                assert ta.unit_id == tb.unit_id
                np.testing.assert_array_equal(ta.y, tb.y)
                np.testing.assert_array_equal(ta.a, tb.a)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("defect, message", [
        ("version_99", "malformed manifest: ValueError('format_version must be 1')"),
        ("splits_a_list", "malformed manifest: TypeError('splits must be an object')"),
        ("ids_out_of_order", "its unit ids are not the 'test' list of "),
        ("id_in_two_splits", "appears twice, also in ")])
    def test_a_manifest_that_does_not_describe_the_files_is_refused(self, tmp_path, defect,
                                                                    message):
        # each is a DataError naming the file; the last is found at the
        # repeated unit's line and names the file that held it first
        cfg = SemiSynthConfig(n_patients=6, seed=7)
        write_dataset(tmp_path, generate_semi_synthetic(cfg), cfg, cfg.seed)
        bad = break_manifest(tmp_path, defect)
        if defect == "ids_out_of_order":
            message += str(tmp_path / "manifest.json")
        elif defect == "id_in_two_splits":
            message += str(tmp_path / "train.jsonl")
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}.*{re.escape(message)}"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("uid", ["x", 1.5, None, True], ids=["string", "float", "null",
                                                                "bool"])
    def test_a_unit_id_that_is_not_an_integer_is_refused(self, tmp_path, uid):
        # `forecast --unit-id` names a unit by an integer, so a line whose id
        # is any other JSON value, a boolean included, is malformed
        with pytest.raises(DataError, match=r"train\.jsonl, line 2: malformed record: "
                                            rf"TypeError\(.unit id {re.escape(repr(uid))} is "
                                            "not an integer"):
            read_lines(tmp_path, GOOD_LINE, record_with("y", lambda arr: arr, unit_id=uid))


def read_lines(tmp_path, *recs):
    """The units read_dataset makes of a dataset whose one split, train,
    holds one line per record dict of `recs`."""
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"format_version": 1, "splits": {"train": [rec["unit_id"] for rec in recs]}}))
    (tmp_path / "train.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    return read_dataset(tmp_path)[0]["train"]


def record_with(field, change, unit_id=7):
    """The dataset line, as a dict, of a 3-time, 2-outcome, 1-treatment
    record with `change` applied to the array named `field`."""
    rec = {"times": np.arange(3.0), "y": np.ones((3, 2)), "mask": np.ones((3, 2)),
           "a": np.zeros((3, 1))}
    rec[field] = change(rec[field].copy())
    return {"unit_id": unit_id, **{k: v.tolist() for k, v in rec.items()}}


def put(index, value):
    def change(arr):
        arr[index] = value
        return arr
    return change


# every unit's record enters through a simulator or a dataset line, and
# read_dataset holds each line to the record rule: a good line 1 of unit 3,
# then a broken line 2 of unit 7
GOOD_LINE = record_with("y", lambda arr: arr, unit_id=3)
BROKEN_LINE_2 = r"train\.jsonl, line 2: malformed record: DataError\('unit 7: "


def test_trajectory_requires_increasing_times(tmp_path):
    with pytest.raises(DataError, match=BROKEN_LINE_2 + "times must be"):
        read_lines(tmp_path, GOOD_LINE, record_with("times", put(1, 0.0)))


@pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], []],
                         ids=["nan_time", "no_times"])
def test_trajectory_requires_finite_nonempty_times(tmp_path, times):
    # a NaN time compares false both ways, so the increasing-times check
    # alone lets it through; a record without times has no history to encode
    T = len(times)
    rec = {"unit_id": 7, "times": times, "y": [[0.0]] * T, "mask": [[1.0]] * T,
           "a": [[0.0]] * T}
    with pytest.raises(DataError, match=BROKEN_LINE_2 + "times must be"):
        read_lines(tmp_path, GOOD_LINE, rec)


@pytest.mark.parametrize("field,change", [
    ("y", lambda arr: arr[:-1]), ("mask", lambda arr: arr[:, :1]),
    ("a", lambda arr: arr[1:]), ("y", lambda arr: arr[:, 0]),
    ("mask", put((1, 0), 2.0)), ("mask", put((1, 0), -1.0)),
    ("mask", put((1, 0), np.nan)), ("y", put((1, 0), np.nan)),
    ("y", put((2, 1), -np.inf)), ("a", put((0, 0), np.nan)),
], ids=["y_row_short", "mask_narrow", "a_row_short", "y_1d", "mask_2",
        "mask_negative", "mask_nan", "observed_y_nan", "observed_y_inf",
        "a_nan"])
def test_trajectory_rejects_a_broken_record(tmp_path, field, change):
    with pytest.raises(DataError, match=BROKEN_LINE_2):
        read_lines(tmp_path, GOOD_LINE, record_with(field, change))


def test_unobserved_entries_become_zero(tmp_path):
    rec = record_with("mask", put((1, 0), 0.0))
    rec["y"][1][0] = np.nan
    tr, = read_lines(tmp_path, rec)
    assert tr.y[1, 0] == 0.0 and not np.signbit(tr.y[1, 0])
    np.testing.assert_array_equal(np.delete(tr.y.ravel(), 2), 1.0)
