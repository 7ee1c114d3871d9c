"""Ground-truth generators for the forecasting experiments.

Two families: a stochastic tumor-volume/body-weight model under confounded
chemo- and radiotherapy dosing, and a semi-synthetic cohort built from
B-spline trends, Matern Gaussian-process samples (via random Fourier
features), hidden smooth confounder channels, and windowed effects of
confounded binary treatments.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import _sigmoid
from .errors import ConfigError, DataError, NumericError
from .model import History

# Tumor model constants
C_MAX = 14.0     # mg/m^3, maximum chemotherapy dose
D_MAX_GY = 3.0   # Gy, maximum radiotherapy dose
DIAM_MAX = 13.0  # cm, maximum tumor diameter
DELTA = DIAM_MAX / 2.0
DIAM_WINDOW_DAYS = 15.0
V_MIN = 1e-3
W_MIN = 1.0
# patients x Euler steps in one cancer cohort, and patients x hours x
# random-feature products per hour in one semi-synthetic cohort
MAX_SIM_STEPS = 100_000_000
# Python-level iterations of one semi-synthetic cohort: its random functions,
# drawn one by one per patient, and its treatment loop over hours
MAX_SIM_LOOPS = 1_000_000
# least horizon_hours and lengthscale: near 1e-308 knot spacings and frequencies overflow
MIN_SCALE = 1e-300
# most random-feature products in one evaluation of a semi-synthetic cohort's
# patient paths, which takes as many patients at a time as fit
RFF_CHUNK = 2**15

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
        if not 0 < self.eta_sd < np.inf or self.seed < 0:
            raise ConfigError("eta_sd must be positive and finite, seed >= 0")
        if not np.isfinite([self.alpha_s, self.alpha_g, self.alpha_phi, self.beta]).all():
            raise ConfigError("alpha_s, alpha_g, alpha_phi and beta must be finite")
        for key in ("horizon_hours", "eps_lengthscale", "g_lengthscale", "readout_lengthscale"):
            if not MIN_SCALE <= getattr(self, key) < np.inf:
                raise ConfigError(f"{key} must be finite and at least MIN_SCALE={MIN_SCALE!r}")
        hours = _hour_count(self.horizon_hours)
        # per hour: the d_eps confounder and d_y trend-noise paths, and the
        # d_y + d_a read-outs of the d_eps confounders
        products = (self.n_patients * hours * self.nu
                    * (self.d_eps + self.d_y + (self.d_y + self.d_a) * self.d_eps))
        if products > MAX_SIM_STEPS:
            raise ConfigError(f"n_patients x ceil(horizon_hours + 0.5) x nu x (d_eps + "
                              f"d_y + (d_y + d_a) x d_eps) is {products} random-feature "
                              f"products, more than MAX_SIM_STEPS={MAX_SIM_STEPS}")
        loops = (self.n_patients * (self.d_y + self.d_eps)
                 + hours * (self.d_a + min(self.w + 1, hours)))
        if loops > MAX_SIM_LOOPS:
            raise ConfigError(f"n_patients x (d_y + d_eps) + ceil(horizon_hours + 0.5) x "
                              f"(d_a + min(w + 1, ceil(horizon_hours + 0.5))) is {loops} "
                              f"loop iterations, more than MAX_SIM_LOOPS={MAX_SIM_LOOPS}")
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
    """One unit's record, as a simulator makes it and a dataset line holds
    it. The record rule is :meth:`~obsnode.model.History.checked`: the
    simulators compute records that keep it, and :func:`read_dataset`
    applies it to each line."""
    unit_id: int
    times: np.ndarray
    y: np.ndarray      # (T, d_y)
    mask: np.ndarray   # (T, d_y)
    a: np.ndarray      # (T, d_a)
    latents: np.ndarray | None = None
    confounders: np.ndarray | None = None


def _hour_count(horizon_hours):
    """Points of the semi-synthetic hourly grid 0, 1, 2, ... below
    horizon_hours + 0.5, the length of np.arange(0.0, horizon_hours + 0.5)."""
    return math.ceil(horizon_hours + 0.5)


def _patient_rng(seed, unit_id, stream):
    """Patient `unit_id`'s stream 0 (its parameters) or 1 (its noise); kept
    apart so a patient can be re-simulated with the same physiology under a
    different dose path or with noise off."""
    return np.random.default_rng(np.random.SeedSequence((seed, unit_id, stream)))


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
    rngs = [_patient_rng(config.seed, uid, 1) for uid in unit_ids] if config.noise else []
    sigma = np.stack([p.sigma_v, p.sigma_w], axis=1)
    draws = np.empty((n, steps_per_cycle, 2))
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
                for r, row in zip(rngs, draws):
                    r.standard_normal(out=row)
                np.multiply(draws.transpose(1, 0, 2), sigma, out=noise)
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
    return [sample_patient_params(_patient_rng(config.seed, uid, 0)) for uid in unit_ids]


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

def rff_draw(rng, input_dim, n_features):
    """(t, b, w), the draws of one random-Fourier-feature sample path of a
    Matern-3/2 Gaussian process in stream order: Student-t(3) variates t
    (n_features, input_dim), phases b uniform on [0, 2 pi) and weights w
    standard normal (n_features,)."""
    return (rng.standard_t(3, size=(n_features, input_dim)),
            rng.uniform(0.0, 2.0 * np.pi, size=n_features), rng.normal(size=n_features))


def rff_eval(x, lengthscale, t, b, w, rowwise=False):
    """f(x) = sqrt(2/n) * sum_i w_i cos(omega_i . x + b_i) at the points x
    (..., T, input_dim), with frequencies omega = t * sqrt(3) / lengthscale.

    t is (..., n, input_dim), b and w (..., n); their leading axes, x's and
    lengthscale's broadcast, and each leading index is its own matrix
    product, so its values are bitwise those of evaluating its one path
    alone. `rowwise` evaluates each row of x as its own one-row product, so
    its values are bitwise those of evaluating each row alone.
    """
    omega_t = np.swapaxes(t * np.sqrt(3.0) / lengthscale, -1, -2)
    if rowwise:
        proj = (x[..., None, :] @ omega_t[..., None, :, :])[..., 0, :] + b[..., None, :]
        out = (np.cos(proj)[..., None, :] @ w[..., None, :, None])[..., 0, 0]
    else:
        proj = x @ omega_t + b[..., None, :]
        out = (np.cos(proj) @ w[..., :, None])[..., 0]
    return np.sqrt(2.0 / w.shape[-1]) * out


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
    patient's random functions and noise come from its own streams, drawn
    patient by patient; the functions are then evaluated a chunk of
    patients at a time, and the treatment loop runs over all patients at once.
    A non-finite outcome raises NumericError naming the first unit that has one.
    """
    times = np.arange(float(_hour_count(config.horizon_hours)))
    T = times.size
    n, d_y, d_a, d_eps = config.n_patients, config.d_y, config.d_a, config.d_eps
    B = config.effect_matrix()

    ds_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    bsplines = [_bspline_mixture(ds_rng, config.horizon_hours) for _ in range(d_y)]
    phi_y = [rff_draw(ds_rng, d_eps, config.nu) for _ in range(d_y)]
    # confounder channels feeding each treatment: first channel for treatment
    # 1, the remaining channels for the others
    conf_idx = [np.array([0])] + [np.arange(1, d_eps)] * (d_a - 1)
    phi_a = [rff_draw(ds_rng, len(idx), config.nu) for idx in conf_idx]
    readout_ls = config.readout_lengthscale
    trend = np.stack([config.alpha_s * sp(times) for sp in bsplines], axis=1)

    eps = np.empty((n, T, d_eps))
    y = np.empty((n, T, d_y))  # untreated until the treatment loop reaches t
    conf_readout = np.empty((n, T, d_a))
    U = np.empty((n, T, d_a))
    # each patient's d_eps confounder paths, then its d_y trend-noise paths
    n_paths = d_eps + d_y
    path_ls = np.repeat([config.eps_lengthscale, config.g_lengthscale],
                        [d_eps, d_y])[:, None, None]
    chunk = max(1, RFF_CHUNK // (T * config.nu * n_paths))
    feats = [np.empty((chunk, n_paths) + shape)
             for shape in ((config.nu, 1), (config.nu,), (config.nu,))]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # only the draws, in each patient's stream order; the eta noise
        # waits in y to be added last
        for i in range(lo, hi):
            prng, nrng = _patient_rng(config.seed, i, 0), _patient_rng(config.seed, i, 1)
            for j in range(n_paths):
                for out, draw in zip(feats, rff_draw(prng, 1, config.nu)):
                    out[i - lo, j] = draw
            y[i] = nrng.normal(0.0, config.eta_sd, size=(T, d_y))
            U[i] = nrng.uniform(size=(T, d_a))
        paths = rff_eval(times[:, None], path_ls,
                         *(f[:hi - lo] for f in feats)).transpose(0, 2, 1)
        eps[lo:hi] = paths[..., :d_eps]
        readout = np.stack([rff_eval(eps[lo:hi], readout_ls, *f) for f in phi_y], axis=-1)
        y[lo:hi] = (trend + config.alpha_g * paths[..., d_eps:]
                    + config.alpha_phi * readout + y[lo:hi])
        conf_readout[lo:hi] = np.stack(
            [rff_eval(np.take(eps[lo:hi], idx, axis=-1), readout_ls, *f, rowwise=True)
             for f, idx in zip(phi_a, conf_idx)], axis=-1)

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
    if not (finite := np.isfinite(y).all(axis=(1, 2))).all():
        raise NumericError(f"unit {np.argmin(finite)}: non-finite outcome")

    return _split_thirds([Trajectory(unit_id=i, times=times.copy(), y=y[i],
                                     mask=np.ones_like(y[i]), a=A[i], latents=P[i],
                                     confounders=eps[i]) for i in range(n)])


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------

def write_dataset(dirpath, splits, config, seed):
    """JSON-lines trajectories, one line json.dumps of each unit's record,
    plus a manifest with the config, the seed and the split membership.

    The units of a split mostly share their times and mask, so the text of
    either is made again only when its bits differ from the previous unit's.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    membership = {}
    for split, trajs in splits.items():
        shared = {"times": (None, ""), "mask": (None, "")}  # key -> (bits, text)
        with open(dirpath / f"{split}.jsonl", "w") as fh:
            for tr in trajs:
                parts = [f'{{"unit_id": {json.dumps(tr.unit_id)}']
                for key in ("times", "y", "mask", "a", "latents", "confounders"):
                    arr = getattr(tr, key)
                    if arr is None:
                        continue
                    arr = np.asarray(arr)
                    if key in shared:
                        bits = (arr.dtype.str, arr.shape, arr.tobytes())
                        if bits != shared[key][0]:
                            shared[key] = bits, json.dumps(arr.tolist())
                        text = shared[key][1]
                    else:
                        text = json.dumps(arr.tolist())
                    parts.append(f'"{key}": {text}')
                fh.write(", ".join(parts) + "}\n")
        membership[split] = [tr.unit_id for tr in trajs]
    manifest = {"format_version": 1, "config": asdict(config), "seed": seed,
                "splits": membership}
    with open(dirpath / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def read_dataset(dirpath):
    """Load splits written by write_dataset; returns (splits, manifest). A
    missing or malformed manifest or split file raises DataError naming it:
    the manifest must have format_version 1 and a `splits` object, each split
    file must hold the units of its manifest list in that order, and each
    unit id must be a JSON integer, once in the dataset. Each line's record
    is held to the record rule of :meth:`~obsnode.model.History.checked`, so
    a line that breaks it raises DataError naming the file, the line and the
    unit, and each unobserved y entry is read as +0.0."""
    dirpath = Path(dirpath)
    mpath = dirpath / "manifest.json"
    if not mpath.exists():
        raise DataError(f"missing manifest: {mpath}")
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
        membership = manifest["splits"]
        if manifest["format_version"] != 1:
            raise ValueError("format_version must be 1")
        if not isinstance(membership, dict):
            raise TypeError("splits must be an object")
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{mpath}: malformed manifest: {e!r}")
    splits, seen = {}, {}  # seen: unit id -> the split file that holds it
    for split, members in membership.items():
        path = dirpath / f"{split}.jsonl"
        trajs = []
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    try:
                        rec = json.loads(line)
                        if type(uid := rec["unit_id"]) is not int:  # as `forecast --unit-id`
                            raise TypeError(f"unit id {uid!r} is not an integer")
                        if uid in seen:
                            raise ValueError(f"unit {uid!r} appears twice, also in {seen[uid]}")
                        seen[uid] = path
                        record = History.checked(rec["times"], rec["y"], rec["mask"],
                                                 rec["a"], f"unit {uid}", ndim=2)
                        trajs.append(Trajectory(uid, *record, *(
                            np.array(rec[k]) if k in rec else None
                            for k in ("latents", "confounders"))))
                    except (ValueError, KeyError, TypeError, DataError) as e:
                        raise DataError(f"{path}, line {lineno}: malformed "
                                        f"record: {e!r}")
        except (OSError, ValueError) as e:
            raise DataError(f"{path}: {e}")
        if [tr.unit_id for tr in trajs] != members:
            raise DataError(f"{path}: its unit ids are not the {split!r} list of {mpath}")
        splits[split] = trajs
    return splits, manifest
