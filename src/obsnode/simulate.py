"""Ground-truth generators for the forecasting experiments.

Two families: a stochastic tumor-volume/body-weight model under confounded
chemo- and radiotherapy dosing, and a semi-synthetic cohort built from
B-spline trends, Matern Gaussian-process samples (via random Fourier
features), hidden smooth confounder channels, and windowed effects of
confounded binary treatments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline

from .autodiff import _sigmoid
from .errors import ConfigError, DataError, NumericError

# Tumor model constants
C_MAX = 14.0     # mg/m^3, maximum chemotherapy dose
D_MAX_GY = 3.0   # Gy, maximum radiotherapy dose
DIAM_MAX = 13.0  # cm, maximum tumor diameter
DELTA = DIAM_MAX / 2.0
DIAM_WINDOW_DAYS = 15.0
V_MIN = 1e-3
W_MIN = 1.0

# Population parameter distributions: name -> (mean, sd)
PARAM_DISTS = {
    "rho": (7e-5, 0.00723),
    "alpha_r": (0.0398, 0.168),
    "beta_c": (0.028, 0.0007),
    "rho_w": (14e-5, 1e-5),
    "alpha_wr": (0.004125, 1e-4),
    "beta_wc": (0.001775, 2e-4),
    "lam": (31e-5, 15e-6),
}
K_TUMOR = 30.0
SIGMA_V = 0.01
SIGMA_W = 0.0015


@dataclass
class CancerPatientParams:
    rho: float
    K: float
    alpha_r: float
    beta_r: float
    beta_c: float
    rho_w: float
    K_w: float
    alpha_wr: float
    beta_wc: float
    lam: float
    alpha_c_dose: float
    alpha_r_dose: float
    sigma_v: float = SIGMA_V
    sigma_w: float = SIGMA_W
    v0: float = 1.0
    w0: float = 70.0


@dataclass
class CancerSimConfig:
    n_patients: int = 3000
    n_cycles: int = 12
    cycle_days: float = 30.0
    dt: float = 0.25
    gamma: float = 4.0
    obs_every: float = 1.0
    noise: bool = True
    seed: int = 0

    def __post_init__(self):
        if min(self.n_patients, self.n_cycles) < 1 or self.seed < 0:
            raise ConfigError("n_patients and n_cycles must be >= 1, seed >= 0")
        if min(self.dt, self.cycle_days, self.obs_every) <= 0:
            raise ConfigError("dt, cycle_days and obs_every must be positive")
        if abs(round(self.cycle_days / self.dt) * self.dt - self.cycle_days) > 1e-9:
            raise ConfigError("dt must divide cycle_days")
        if not 1.0 <= self.gamma <= 8.0:
            raise ConfigError("gamma must lie in [1, 8]")
        if abs(round(self.obs_every / self.dt) * self.dt - self.obs_every) > 1e-9:
            raise ConfigError("dt must divide obs_every")


@dataclass
class SemiSynthConfig:
    n_patients: int = 300
    horizon_hours: float = 72.0
    d_y: int = 2
    d_a: int = 2
    alpha_s: float = 2.0
    alpha_g: float = 0.5
    alpha_phi: float = 1.0
    nu: int = 20
    gamma_A: tuple[float, ...] = (0.3, 0.3)
    gamma_eps: tuple[float, ...] = (0.3, 0.1)
    bias: tuple[float, ...] = (-2.0, -2.0)
    beta: float = 1.0
    w: int = 5
    eta_sd: float = 0.005
    d_eps: int = 3
    eps_lengthscale: float = 10.0
    g_lengthscale: float = 10.0
    readout_lengthscale: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_patients, self.d_y, self.d_a, self.nu, self.d_eps, self.w) < 1:
            raise ConfigError("n_patients, d_y, d_a, nu, d_eps and w must be >= 1")
        if min(self.horizon_hours, self.eta_sd, self.eps_lengthscale,
               self.g_lengthscale, self.readout_lengthscale) <= 0 or self.seed < 0:
            raise ConfigError("horizon_hours, eta_sd and the lengthscales must "
                              "be positive, seed >= 0")
        for tup in (self.gamma_A, self.gamma_eps, self.bias):
            if len(tup) != self.d_a or not all(np.isfinite(v) for v in tup):
                raise ConfigError("treatment parameter tuples must have d_a "
                                  "finite entries")

    def effect_matrix(self):
        """beta_lj: treatment 1 hits component 1, treatment 2 the rest."""
        B = np.zeros((self.d_a, self.d_y))
        B[0, 0] = self.beta
        if self.d_a > 1:
            B[1:, 1:] = self.beta
        return B


@dataclass
class Trajectory:
    unit_id: int
    times: np.ndarray
    y: np.ndarray      # (T, d_y)
    mask: np.ndarray   # (T, d_y)
    a: np.ndarray      # (T, d_a)
    latents: np.ndarray | None = None
    confounders: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        if (self.times.size == 0 or not np.isfinite(self.times).all()
                or np.any(np.diff(self.times) <= 0)):
            raise DataError(f"unit {self.unit_id}: times must be nonempty, "
                            "finite and strictly increasing")


def _patient_rngs(seed, unit_id):
    """Separate parameter and noise streams so a patient can be re-simulated
    with the same physiology under a different dose path or with noise off."""
    params = np.random.default_rng(np.random.SeedSequence((seed, unit_id, 0)))
    noise = np.random.default_rng(np.random.SeedSequence((seed, unit_id, 1)))
    return params, noise


def sample_patient_params(rng, config: CancerSimConfig,
                          sigma_scale: float = 1.0) -> CancerPatientParams:
    """Draw one patient from the population model. `sigma_scale` rescales the
    population spread (0 gives the distribution means)."""
    draws = {}
    for name, (mu, sd) in PARAM_DISTS.items():
        v = rng.normal(mu, sd * sigma_scale)
        tries = 0
        while v <= 0 and sigma_scale > 0:
            v = rng.normal(mu, sd * sigma_scale)
            tries += 1
            if tries >= 1000:
                raise DataError(f"parameter {name!r}: 1000 rejected draws")
        draws[name] = max(v, 0.0)
    v0 = rng.uniform(0.5, 3.0)
    w0 = rng.uniform(50.0, 90.0)
    return CancerPatientParams(
        rho=draws["rho"], K=K_TUMOR,
        alpha_r=draws["alpha_r"], beta_r=draws["alpha_r"] / 10.0,
        beta_c=draws["beta_c"],
        rho_w=draws["rho_w"], K_w=w0,
        alpha_wr=draws["alpha_wr"], beta_wc=draws["beta_wc"], lam=draws["lam"],
        alpha_c_dose=rng.uniform(1.0, 4.0), alpha_r_dose=rng.uniform(1.0, 4.0),
        v0=v0, w0=w0,
    )


def diameter(volume):
    """Spherical diameter (cm) from volume (cm^3)."""
    return np.cbrt(6.0 * np.asarray(volume) / np.pi)


def dose_policy(d_bar, gamma, patient: CancerPatientParams):
    """Cycle doses (chemo mg/m^3, radio Gy) as a confounded response to the
    mean tumor diameter over the trailing window."""
    c = C_MAX * _sigmoid(gamma * patient.alpha_c_dose / DIAM_MAX * (d_bar - DELTA))
    d = D_MAX_GY * _sigmoid(gamma * patient.alpha_r_dose / DIAM_MAX * (d_bar - DELTA))
    return float(c), float(d)


def simulate_cancer_patient(params: CancerPatientParams, config: CancerSimConfig,
                            rng, unit_id: int = 0,
                            dose_schedule=None) -> Trajectory:
    """Euler-Maruyama integration of the tumor/weight dynamics with doses
    reassigned at each monthly cycle boundary.

    `dose_schedule`, when given, is an (n_cycles, 2) array of (chemo, radio)
    doses that overrides the policy; the noise stream consumption is identical
    either way, so re-simulation under an alternative schedule keeps the same
    physiological noise.
    """
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
                c_dose, d_dose = dose_policy(d_bar, config.gamma, params)
            doses[cycle] = (c_dose, d_dose)
        if k % obs_stride == 0:
            times.append(t)
            ys.append((v, w))
            treats.append((c_dose, d_dose))
        if k == n_steps:
            break

        eps_v = rng.normal(0.0, params.sigma_v)
        eps_w = rng.normal(0.0, params.sigma_w)
        if not config.noise:
            eps_v = eps_w = 0.0
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


def generate_cancer_dataset(config: CancerSimConfig):
    """Simulate the full cohort; thirds by unit index give train/val/test."""
    trajs = []
    for uid in range(config.n_patients):
        prng, nrng = _patient_rngs(config.seed, uid)
        params = sample_patient_params(prng, config)
        trajs.append(simulate_cancer_patient(params, config, nrng, unit_id=uid))
    return _split_thirds(trajs)


def _split_thirds(trajs):
    n = len(trajs)
    a, b = n // 3, 2 * (n // 3)
    return {"train": trajs[:a], "val": trajs[a:b], "test": trajs[b:]}


# ---------------------------------------------------------------------------
# Semi-synthetic cohort
# ---------------------------------------------------------------------------

def rff_function(rng, input_dim, n_features, lengthscale):
    """Random-Fourier-feature sample path of a Matern-3/2 Gaussian process.

    f(x) = sqrt(2/n) * sum_i w_i cos(omega_i . x + b_i), with frequencies
    omega_i drawn as Student-t(3) variates scaled by sqrt(3)/lengthscale.
    """
    if n_features < 1:
        raise ValueError("rff_function: n_features must be >= 1")
    omega = rng.standard_t(3, size=(n_features, input_dim)) * np.sqrt(3.0) / lengthscale
    b = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    w = rng.normal(size=n_features)

    def f(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        proj = x @ omega.T + b
        return np.sqrt(2.0 / n_features) * (np.cos(proj) @ w)

    return f


def _bspline_mixture(rng, horizon, n_components=3):
    """Random mixture of cubic B-spline bumps spread over [0, horizon]."""
    splines = []
    for i in range(n_components):
        lo = horizon * i / n_components
        hi = horizon * (i + 2) / (n_components + 1)
        knots = np.concatenate([[lo] * 4, [(lo + hi) / 2], [hi] * 4])
        splines.append(BSpline(knots, np.array([0, 0.3, 1.0, 0.3, 0.0]), 3,
                               extrapolate=False))
    weights = rng.normal(size=n_components)

    def f(t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for wgt, sp in zip(weights, splines):
            vals = sp(t)
            out += wgt * np.nan_to_num(vals, nan=0.0)
        return out

    return f


def generate_semi_synthetic(config: SemiSynthConfig):
    """Cohort of treated outcome trajectories on an hourly grid.

    Untreated outcomes mix a shared B-spline trend, a per-patient Matern GP
    sample, a nonlinear read-out of hidden smooth confounders, and white
    noise. Binary treatments depend on recent outcomes and the confounders;
    their effect decays quadratically inside a trailing window.
    """
    times = np.arange(0.0, config.horizon_hours + 0.5, 1.0)
    T = times.size
    d_y, d_a, d_eps = config.d_y, config.d_a, config.d_eps
    B = config.effect_matrix()

    ds_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    bsplines = [_bspline_mixture(ds_rng, config.horizon_hours) for _ in range(d_y)]
    phi_y = [rff_function(ds_rng, d_eps, config.nu, config.readout_lengthscale)
             for _ in range(d_y)]
    # confounder channels feeding each treatment: first channel for treatment
    # 1, the remaining channels for the others
    conf_idx = [np.array([0])] + [np.arange(1, d_eps)] * (d_a - 1)
    phi_a = [rff_function(ds_rng, len(idx), config.nu,
                          config.readout_lengthscale) for idx in conf_idx]

    trajs = []
    for uid in range(config.n_patients):
        prng, nrng = _patient_rngs(config.seed, uid)
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


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def write_dataset(dirpath, splits, config, seed):
    """JSON-lines trajectories plus a manifest with the config, the seed and
    the split membership."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    membership = {}
    for split, trajs in splits.items():
        with open(dirpath / f"{split}.jsonl", "w") as fh:
            for tr in trajs:
                rec = {"unit_id": tr.unit_id, "times": tr.times.tolist(),
                       "y": tr.y.tolist(), "mask": tr.mask.tolist(),
                       "a": tr.a.tolist()}
                if tr.latents is not None:
                    rec["latents"] = np.asarray(tr.latents).tolist()
                if tr.confounders is not None:
                    rec["confounders"] = np.asarray(tr.confounders).tolist()
                fh.write(json.dumps(rec) + "\n")
        membership[split] = [tr.unit_id for tr in trajs]
    manifest = {"format_version": 1, "config": asdict(config), "seed": seed,
                "splits": membership}
    with open(dirpath / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def read_dataset(dirpath):
    """Load splits written by write_dataset; returns (splits, manifest). A
    missing or malformed manifest, split file or record raises DataError."""
    dirpath = Path(dirpath)
    mpath = dirpath / "manifest.json"
    if not mpath.exists():
        raise DataError(f"missing manifest: {mpath}")
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
        split_names = list(manifest["splits"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{mpath}: malformed manifest: {e!r}")
    splits = {}
    for split in split_names:
        path = dirpath / f"{split}.jsonl"
        trajs = []
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    try:
                        rec = json.loads(line)
                        trajs.append(Trajectory(
                            unit_id=rec["unit_id"], times=np.array(rec["times"]),
                            y=np.array(rec["y"]), mask=np.array(rec["mask"]),
                            a=np.array(rec["a"]),
                            latents=(np.array(rec["latents"])
                                     if "latents" in rec else None),
                            confounders=(np.array(rec["confounders"])
                                         if "confounders" in rec else None)))
                    except (ValueError, KeyError, TypeError) as e:
                        raise DataError(f"{path}, line {lineno}: malformed "
                                        f"record: {e!r}")
        except (OSError, ValueError) as e:
            raise DataError(f"{path}: {e}")
        splits[split] = trajs
    return splits, manifest
