import numpy as np
import pytest

from obsnode.errors import ConfigError, DataError
from obsnode.simulate import (C_MAX, D_MAX_GY, PARAM_DISTS, CancerSimConfig,
                              SemiSynthConfig, Trajectory, diameter,
                              dose_policy, generate_cancer_dataset,
                              generate_semi_synthetic, read_dataset,
                              rff_function, sample_patient_params,
                              simulate_cancer_patient, write_dataset)


def tiny_cancer_cfg(**kw):
    kw.setdefault("n_patients", 6)
    kw.setdefault("n_cycles", 3)
    return CancerSimConfig(**kw)


class TestPatientParams:
    def test_zero_spread_gives_population_means(self):
        cfg = tiny_cancer_cfg()
        p = sample_patient_params(np.random.default_rng(0), cfg, sigma_scale=0.0)
        assert p.rho == PARAM_DISTS["rho"][0]
        assert p.beta_c == PARAM_DISTS["beta_c"][0]
        assert p.K == 30.0

    def test_beta_r_is_tenth_of_alpha_r(self):
        cfg = tiny_cancer_cfg()
        for seed in range(20):
            p = sample_patient_params(np.random.default_rng(seed), cfg)
            assert p.beta_r == p.alpha_r / 10.0

    def test_rate_parameters_positive(self):
        cfg = tiny_cancer_cfg()
        for seed in range(50):
            p = sample_patient_params(np.random.default_rng(seed), cfg)
            for v in (p.rho, p.alpha_r, p.beta_c, p.rho_w, p.alpha_wr,
                      p.beta_wc, p.lam):
                assert v >= 0.0

    def test_chemo_kill_sample_mean(self):
        cfg = tiny_cancer_cfg()
        rng = np.random.default_rng(123)
        vals = [sample_patient_params(rng, cfg).beta_c for _ in range(10_000)]
        assert abs(np.mean(vals) - 0.028) < 3 * 0.0007 / 100

    def test_carrying_capacity_is_initial_weight(self):
        p = sample_patient_params(np.random.default_rng(7), tiny_cancer_cfg())
        assert p.K_w == p.w0
        assert 50.0 <= p.w0 <= 90.0
        assert 0.5 <= p.v0 <= 3.0


class TestDosePolicy:
    def setup_method(self):
        self.p = sample_patient_params(np.random.default_rng(0),
                                       tiny_cancer_cfg(), sigma_scale=0.0)

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

    def test_gompertz_fixed_point(self):
        cfg = tiny_cancer_cfg(noise=False)
        p = sample_patient_params(np.random.default_rng(0), cfg, sigma_scale=0.0)
        p.v0 = p.K
        p.beta_c = p.alpha_r = p.beta_r = 0.0
        tr = simulate_cancer_patient(p, cfg, np.random.default_rng(1))
        np.testing.assert_allclose(tr.y[:, 0], p.K, rtol=0, atol=1e-12)

    def test_untreated_growth_matches_fine_reference(self):
        # noise and doses off: compare Euler at dt=0.25 against a dt=1/256
        # reference of the same Gompertz ODE
        cfg = tiny_cancer_cfg(noise=False)
        p = sample_patient_params(np.random.default_rng(0), cfg, sigma_scale=0.0)
        p.v0 = 1.0
        p.beta_c = p.alpha_r = p.beta_r = 0.0
        tr = simulate_cancer_patient(p, cfg, np.random.default_rng(1))
        assert np.all(np.diff(tr.y[:, 0]) > 0)  # strictly growing toward K

        t_end = cfg.n_cycles * cfg.cycle_days
        dt = 1.0 / 256.0
        v = 1.0
        for _ in range(int(round(t_end / dt))):
            v += p.rho * np.log(p.K / v) * v * dt
        assert abs(tr.y[-1, 0] - v) < 1e-3

    def test_max_chemo_shrinks_tumor_initially(self):
        cfg = tiny_cancer_cfg(noise=False, n_cycles=1)
        p = sample_patient_params(np.random.default_rng(0), cfg, sigma_scale=0.0)
        p.v0 = 1.0
        schedule = np.array([[C_MAX, 0.0]])
        tr = simulate_cancer_patient(p, cfg, np.random.default_rng(1),
                                     dose_schedule=schedule)
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
        p = sample_patient_params(np.random.default_rng(2), cfg)
        fact = simulate_cancer_patient(p, cfg, np.random.default_rng(9))
        sched = fact.latents.copy()
        redo = simulate_cancer_patient(p, cfg, np.random.default_rng(9),
                                       dose_schedule=sched)
        np.testing.assert_array_equal(fact.y, redo.y)

    def test_treatments_recorded_per_cycle(self):
        cfg = tiny_cancer_cfg(n_cycles=2)
        p = sample_patient_params(np.random.default_rng(0), cfg)
        tr = simulate_cancer_patient(p, cfg, np.random.default_rng(1))
        # constant within a cycle, one change allowed at the boundary
        first = tr.a[tr.times < 30.0]
        assert np.all(first == first[0])

    def test_diameter_map(self):
        assert diameter(np.pi / 6.0) == pytest.approx(1.0)


class TestRff:
    def test_deterministic_given_rng(self):
        xs = np.linspace(-2, 2, 50)[:, None]
        f1 = rff_function(np.random.default_rng(3), 1, 20, 1.0)
        f2 = rff_function(np.random.default_rng(3), 1, 20, 1.0)
        np.testing.assert_array_equal(f1(xs), f2(xs))

    def test_bounded_by_weight_sum(self):
        rng = np.random.default_rng(4)
        n = 30
        f = rff_function(rng, 2, n, 0.7)
        xs = np.random.default_rng(5).normal(size=(1000, 2))
        # recover the weights bound by probing: |f| <= sqrt(2/n) sum|w|
        vals = f(xs)
        w_bound = np.sqrt(2.0 / n) * np.sqrt(n) * 10  # loose uniform bound
        assert np.max(np.abs(vals)) < w_bound

    def test_smoothness_scales_with_lengthscale(self):
        xs = np.arange(0.0, 72.0)[:, None]
        rough = rff_function(np.random.default_rng(1), 1, 50, 1.0)
        smooth = rff_function(np.random.default_rng(1), 1, 50, 20.0)
        dr = np.mean(np.abs(np.diff(rough(xs))))
        ds = np.mean(np.abs(np.diff(smooth(xs))))
        assert ds < dr


class TestSemiSynthetic:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SemiSynthConfig(w=0)
        with pytest.raises(ConfigError):
            SemiSynthConfig(gamma_A=(0.3,))

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

    def test_determinism(self):
        cfg = SemiSynthConfig(n_patients=4, seed=6)
        a = generate_semi_synthetic(cfg)
        b = generate_semi_synthetic(cfg)
        for ta, tb in zip(a["test"], b["test"]):
            assert (ta.y == tb.y).all() and (ta.a == tb.a).all()


class TestDatasetIo:
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


def test_trajectory_requires_increasing_times():
    with pytest.raises(DataError):
        Trajectory(unit_id=0, times=[0.0, 0.0], y=np.zeros((2, 1)),
                   mask=np.ones((2, 1)), a=np.zeros((2, 1)))


@pytest.mark.parametrize("times", [[0.0, np.nan, 2.0], []],
                         ids=["nan_time", "no_times"])
def test_trajectory_requires_finite_nonempty_times(times):
    # a NaN time compares false both ways, so the increasing-times check
    # alone lets it through; a record without times has no history to encode
    T = len(times)
    with pytest.raises(DataError):
        Trajectory(unit_id=0, times=times, y=np.zeros((T, 1)),
                   mask=np.ones((T, 1)), a=np.zeros((T, 1)))
