"""Ground-truth generators for the forecasting experiments.

Two families: a stochastic tumor-volume/body-weight model under confounded
chemo- and radiotherapy dosing, and a semi-synthetic cohort built from
B-spline trends, Matern Gaussian-process samples (via random Fourier
features), hidden smooth confounder channels, and windowed effects of
confounded binary treatments.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

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
# patients x Euler steps in one cancer cohort, and patients x hours x values
# per hour x random features per value in one semi-synthetic cohort
MAX_SIM_STEPS = 100_000_000
# least horizon_hours and lengthscale: near 1e-308 knot spacings and frequencies overflow
MIN_SCALE = 1e-300

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


def _whole_steps(key, span, dt):
    """span / dt, the Euler steps in the span `key`, once it is a whole
    number to a relative 1e-9 and lies in [1, MAX_SIM_STEPS]; else
    ConfigError naming dt and `key`."""
    x = span / dt
    k = round(x) if 0.5 <= x < MAX_SIM_STEPS + 0.5 else 0
    if k < 1 or abs(x - k) > 1e-9 * k:
        raise ConfigError(f"dt must divide {key} into 1 to {MAX_SIM_STEPS} whole steps; "
                          f"{key} / dt = {x:.6g}")
    return k


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
        per_cycle = _whole_steps("cycle_days", self.cycle_days, self.dt)
        if not 1.0 <= self.gamma <= 8.0:
            raise ConfigError("gamma must lie in [1, 8]")
        _whole_steps("obs_every", self.obs_every, self.dt)
        steps = self.n_patients * self.n_cycles * per_cycle
        if steps > MAX_SIM_STEPS:
            raise ConfigError(f"n_patients x n_cycles x cycle_days / dt is {steps} "
                              f"patient steps, more than MAX_SIM_STEPS={MAX_SIM_STEPS}")


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
        if self.eta_sd <= 0 or self.seed < 0:
            raise ConfigError("eta_sd must be positive, seed >= 0")
        for key in ("horizon_hours", "eps_lengthscale", "g_lengthscale", "readout_lengthscale"):
            if getattr(self, key) < MIN_SCALE:
                raise ConfigError(f"{key} must be at least MIN_SCALE={MIN_SCALE!r}")
        values = (self.n_patients * (int(self.horizon_hours) + 1)
                  * (self.d_y + self.d_a + self.d_eps) * self.nu)
        if values > MAX_SIM_STEPS:
            raise ConfigError(f"n_patients x (floor(horizon_hours) + 1) x (d_y + d_a + "
                              f"d_eps) x nu is {values} feature values, more than "
                              f"MAX_SIM_STEPS={MAX_SIM_STEPS}")
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
    """One unit's record, checked on construction (DataError naming the
    unit); unobserved `y` entries may hold any placeholder and become 0.0."""
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
        T = self.times.size
        if (self.times.ndim != 1 or T == 0 or not np.isfinite(self.times).all()
                or np.any(np.diff(self.times) <= 0)):
            raise DataError(f"unit {self.unit_id}: times must be nonempty, "
                            "finite and strictly increasing")
        if (self.y.ndim != 2 or self.a.ndim != 2 or self.mask.shape != self.y.shape
                or len(self.y) != T or len(self.a) != T):
            raise DataError(f"unit {self.unit_id}: with T={T}, y {self.y.shape} and "
                            f"mask {self.mask.shape} must be (T, d_y), a {self.a.shape}"
                            " (T, d_a)")
        observed = self.mask == 1.0
        if not (observed | (self.mask == 0.0)).all():
            raise DataError(f"unit {self.unit_id}: mask entries must be 0 or 1")
        if not (np.isfinite(self.y[observed]).all() and np.isfinite(self.a).all()):
            raise DataError(f"unit {self.unit_id}: non-finite observed y or a")
        self.y = np.where(observed, self.y, 0.0)


def _patient_rngs(seed, unit_id):
    """Separate parameter and noise streams so a patient can be re-simulated
    with the same physiology under a different dose path or with noise off."""
    params = np.random.default_rng(np.random.SeedSequence((seed, unit_id, 0)))
    noise = np.random.default_rng(np.random.SeedSequence((seed, unit_id, 1)))
    return params, noise


def sample_patient_params(rng) -> CancerPatientParams:
    """Draw one patient from the population model; each rate is a normal
    draw truncated to positive values."""
    draws = {}
    for name, (mu, sd) in PARAM_DISTS.items():
        v = rng.normal(mu, sd)
        tries = 0
        while v <= 0:
            v = rng.normal(mu, sd)
            tries += 1
            if tries >= 1000:
                raise DataError(f"parameter {name!r}: 1000 rejected draws")
        draws[name] = v
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
    mean tumor diameter over the trailing window; `d_bar` and the patient's
    fields may be arrays over a cohort."""
    c = C_MAX * _sigmoid(gamma * patient.alpha_c_dose / DIAM_MAX * (d_bar - DELTA))
    d = D_MAX_GY * _sigmoid(gamma * patient.alpha_r_dose / DIAM_MAX * (d_bar - DELTA))
    return c, d


def simulate_cancer_cohort(patients, config: CancerSimConfig, unit_ids,
                           dose_schedule=None):
    """Euler-Maruyama integration of the tumor/weight dynamics of a cohort,
    one (n,) array per state variable, with doses reassigned at each cycle
    boundary; returns one Trajectory per patient.

    Patient i has the physiology `patients[i]` and the noise stream of unit
    `unit_ids[i]`. `dose_schedule`, when given, is an (n, n_cycles, 2) array
    of (chemo, radio) doses that overrides the policy; the noise is the same
    either way, so re-simulation under an alternative schedule keeps the same
    physiological noise. A non-finite state raises NumericError naming the
    first unit that has one.
    """
    n = len(patients)
    dt = config.dt
    steps_per_cycle = round(config.cycle_days / dt)
    n_steps = steps_per_cycle * config.n_cycles
    obs_stride = round(config.obs_every / dt)
    win = round(DIAM_WINDOW_DAYS / dt)
    p = CancerPatientParams(**{f.name: np.array([getattr(q, f.name) for q in patients])
                               for f in fields(CancerPatientParams)})
    # each patient's noise stream, drawn one cycle of (v, w) pairs at a time
    rngs = [_patient_rngs(config.seed, uid)[1] for uid in unit_ids] if config.noise else []
    sigma = np.stack([p.sigma_v, p.sigma_w], axis=1)
    noise = np.zeros((steps_per_cycle, n, 2))

    v, w = p.v0, p.w0
    # ring buffer: the diameter of step s sits in column s % (win + 1), and
    # only the steps a dose decision reads are filled
    diam = np.empty((n, win + 1))
    diam[:, 0] = diameter(v)
    doses = np.zeros((n, config.n_cycles, 2))
    n_obs = n_steps // obs_stride + 1
    ys, treats = np.empty((n, n_obs, 2)), np.empty((n, n_obs, 2))

    for k in range(n_steps + 1):
        if k % steps_per_cycle == 0 and k < n_steps:
            cycle = k // steps_per_cycle
            if dose_schedule is not None:
                doses[:, cycle] = dose_schedule[:, cycle]
            else:
                # np.take keeps each window row contiguous, so np.mean sums
                # it pairwise, as it does one patient's window
                window = np.take(diam, np.arange(max(k - win, 0), k + 1) % (win + 1), axis=1)
                doses[:, cycle] = np.stack(
                    dose_policy(np.mean(window, axis=1), config.gamma, p), axis=1)
            if rngs:
                noise = np.stack([r.standard_normal((steps_per_cycle, 2)) for r in rngs],
                                 axis=1) * sigma
            c_dose, d_dose = doses[:, cycle, 0], doses[:, cycle, 1]
            # the terms constant over a cycle; d ** 2 in Python floats, since
            # numpy's squaring differs from C pow in the last bit
            chemo_v = p.beta_c * c_dose
            radio_v = p.alpha_r * d_dose + p.beta_r * np.array([d ** 2 for d in d_dose.tolist()])
            chemo_w, radio_w = p.beta_wc * c_dose, p.alpha_wr * d_dose
        if k % obs_stride == 0:
            ys[:, k // obs_stride] = np.stack([v, w], axis=1)
            treats[:, k // obs_stride] = doses[:, cycle]
        if k == n_steps:
            break

        eps = noise[k % steps_per_cycle]
        rate_v = p.rho * np.log(p.K / v) - chemo_v - radio_v + eps[:, 0]
        drift_w = (p.rho_w * w * (1.0 - w / p.K_w) - chemo_w - radio_w
                   - p.lam * v + eps[:, 1])
        v = np.maximum(v + rate_v * v * dt, V_MIN)
        w = np.maximum(w + drift_w * dt, W_MIN)
        finite = np.isfinite(v) & np.isfinite(w)
        if not finite.all():
            raise NumericError(f"unit {unit_ids[np.argmin(finite)]}: non-finite "
                               f"state at day {k * dt + dt}")
        if -(k + 1) % steps_per_cycle <= win:
            diam[:, (k + 1) % (win + 1)] = diameter(v)

    times = np.arange(n_obs) * obs_stride * dt
    return [Trajectory(unit_id=uid, times=times.copy(), y=ys[i], mask=np.ones_like(ys[i]),
                       a=treats[i], latents=doses[i])
            for i, uid in enumerate(unit_ids)]


def sample_cohort_params(config: CancerSimConfig, unit_ids):
    """Each unit's physiology, drawn from its own parameter stream."""
    return [sample_patient_params(_patient_rngs(config.seed, uid)[0]) for uid in unit_ids]


def generate_cancer_dataset(config: CancerSimConfig):
    """Simulate the full cohort; thirds by unit index give train/val/test."""
    uids = list(range(config.n_patients))
    return _split_thirds(simulate_cancer_cohort(sample_cohort_params(config, uids),
                                                config, uids))


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
    `f(x, rowwise=True)` evaluates each row of x as its own one-row product,
    so its values are bitwise those of calling f on each row alone.
    """
    omega = rng.standard_t(3, size=(n_features, input_dim)) * np.sqrt(3.0) / lengthscale
    b = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
    w = rng.normal(size=n_features)

    def f(x, rowwise=False):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if rowwise:
            proj = (x[:, None, :] @ omega.T)[:, 0] + b
            return np.sqrt(2.0 / n_features) * (np.cos(proj)[:, None, :] @ w)[:, 0]
        proj = x @ omega.T + b
        return np.sqrt(2.0 / n_features) * (np.cos(proj) @ w)

    return f


def _bspline(knots, coef, x):
    """The cubic B-spline with `knots` and `coef` at the points `x`, 0.0
    outside [knots[3], knots[n]] (n = len(coef)), by de Boor's recursion.

    Each point takes the interval knots[l] <= x < knots[l + 1], l in
    [3, n - 1], and the stages of scipy's `_deBoor_D` in its order, so the
    values are bitwise those of `BSpline(knots, coef, 3, extrapolate=False)`
    with NaN as 0.0.
    """
    k, n = 3, len(coef)
    ell = np.clip(np.searchsorted(knots, x, "right") - 1, k, n - 1)
    h = [np.ones_like(x)]
    for j in range(1, k + 1):
        hh, h = h, [np.zeros_like(x)]
        for m in range(1, j + 1):
            xb, xa = knots[ell + m], knots[ell + m - j]
            same = xb == xa  # an empty interval adds nothing
            w = hh[m - 1] / np.where(same, 1.0, xb - xa)
            h[m - 1] = np.where(same, h[m - 1], h[m - 1] + w * (xb - x))
            h.append(np.where(same, 0.0, w * (x - xa)))
    out = 0.0  # summed from 0.0, as scipy does, for the sign of a zero
    for a in range(k + 1):
        out = out + coef[ell + a - k] * h[a]
    return np.where((x >= knots[k]) & (x <= knots[n]), out, 0.0)


def _bspline_mixture(rng, horizon):
    """Random mixture of three cubic B-spline bumps spread over [0, horizon]."""
    knot_sets = []
    n_components = 3
    for i in range(n_components):
        lo = horizon * i / n_components
        hi = horizon * (i + 2) / (n_components + 1)
        knot_sets.append(np.concatenate([[lo] * 4, [(lo + hi) / 2], [hi] * 4]))
    coef = np.array([0, 0.3, 1.0, 0.3, 0.0])
    weights = rng.normal(size=n_components)

    def f(t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for wgt, knots in zip(weights, knot_sets):
            out += wgt * _bspline(knots, coef, t)
        return out

    return f


def generate_semi_synthetic(config: SemiSynthConfig):
    """Cohort of treated outcome trajectories on an hourly grid.

    Untreated outcomes mix a shared B-spline trend, a per-patient Matern GP
    sample, a nonlinear read-out of hidden smooth confounders, and white
    noise. Binary treatments depend on recent outcomes and the confounders;
    their effect decays quadratically inside a trailing window. Each
    patient's random functions and noise come from its own streams; the
    treatment loop then runs over all patients at once.
    """
    times = np.arange(0.0, config.horizon_hours + 0.5, 1.0)
    T = times.size
    n, d_y, d_a, d_eps = config.n_patients, config.d_y, config.d_a, config.d_eps
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
    trend = np.stack([config.alpha_s * sp(times) for sp in bsplines], axis=1)

    eps = np.empty((n, T, d_eps))
    y = np.empty((n, T, d_y))  # untreated until the treatment loop reaches t
    conf_readout = np.empty((n, T, d_a))
    U = np.empty((n, T, d_a))
    for i in range(n):
        prng, nrng = _patient_rngs(config.seed, i)
        eps[i] = np.stack([rff_function(prng, 1, config.nu, config.eps_lengthscale)(
            times[:, None]) for _ in range(d_eps)], axis=1)
        g = np.stack([rff_function(prng, 1, config.nu, config.g_lengthscale)(times[:, None])
                      for _ in range(d_y)], axis=1)
        readout = np.stack([f(eps[i]) for f in phi_y], axis=1)
        eta = nrng.normal(0.0, config.eta_sd, size=(T, d_y))
        y[i] = trend + config.alpha_g * g + config.alpha_phi * readout + eta
        U[i] = nrng.uniform(size=(T, d_a))
        conf_readout[i] = np.stack([f(eps[i][:, idx], rowwise=True)
                                    for f, idx in zip(phi_a, conf_idx)], axis=1)

    affected = [np.nonzero(B[l] > 0)[0] for l in range(d_a)]
    A = np.zeros((n, T, d_a))
    P = np.zeros((n, T, d_a))
    for t in range(T):
        lo = max(t - config.w, 0)
        for l in range(d_a):
            # the window mean sums each affected component over time, one
            # component after the other
            window = np.ascontiguousarray(y[:, lo:t].transpose(0, 2, 1)[:, affected[l]])
            ybar = (np.mean(window.reshape(n, -1), axis=1)
                    if t > 0 and affected[l].size else 0.0)
            logit = (config.gamma_A[l] * ybar + config.gamma_eps[l] * conf_readout[:, t, l]
                     + config.bias[l])
            P[:, t, l] = _sigmoid(logit)
            A[:, t, l] = U[:, t, l] < P[:, t, l]
        effect = np.zeros((n, d_y))
        for k in range(lo, t + 1):
            active = A[:, k] == 1
            hit = np.where(active[:, :, None], P[:, k, :, None] * B, np.inf).min(axis=1)
            decay = 1.0 / (t - k + 1) ** 2
            effect = np.where(active.any(axis=1)[:, None], effect + hit * decay, effect)
        y[:, t] += effect

    return _split_thirds([Trajectory(unit_id=i, times=times.copy(), y=y[i],
                                     mask=np.ones_like(y[i]), a=A[i], latents=P[i],
                                     confounders=eps[i]) for i in range(n)])


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
                    except (ValueError, KeyError, TypeError, DataError) as e:
                        raise DataError(f"{path}, line {lineno}: malformed "
                                        f"record: {e!r}")
        except (OSError, ValueError) as e:
            raise DataError(f"{path}: {e}")
        splits[split] = trajs
    return splits, manifest
