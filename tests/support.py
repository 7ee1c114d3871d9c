"""Probes and readers that only the tests use, built on the obsnode API.

The test modules import them with ``from support import ...``: pytest puts
this directory on ``sys.path`` when it imports a test module from it.
"""

import csv
from dataclasses import replace

import numpy as np

from obsnode.autodiff import Tensor
from obsnode.errors import DataError
from obsnode.evaluate import RmseGrid, _binned_rmse, _test_scale, raw_forecast
from obsnode.identify import DiscreteScm, InterventionQuery, _query_axes, _reduce, enumerate_joint
from obsnode.model import ObsNodeParams, emit, stack_field, window
from obsnode.odeint import ControlPath, IntegrationConfig, integrate
from obsnode.simulate import (K_TUMOR, PARAM_DISTS, CancerPatientParams, CancerSimConfig,
                              sample_cohort_params, simulate_cancer_cohort)
from obsnode.train import stack_units


def convergence_order(field, z0, control, t0, t1, cfg, reference, halvings=3):
    """Estimated order log2(err(dt)/err(dt/2)), averaged over `halvings`.

    `reference` is the analytic solution at t1 (array). Returns None when the
    coarsest error is already below 1e-13 (inconclusive).
    """
    errs = []
    dt = cfg.step_size
    for _ in range(halvings + 1):
        c = IntegrationConfig(method=cfg.method, step_size=dt)
        (zT,) = integrate(field, Tensor(np.asarray(z0, dtype=np.float64)),
                          control, t0, t1, c, [t1])
        errs.append(float(np.max(np.abs(zT.data - np.asarray(reference)))))
        dt /= 2.0
    if errs[0] < 1e-13:
        return None
    orders = [np.log2(e0 / e1) for e0, e1 in zip(errs[:-1], errs[1:])]
    return float(np.mean(orders))


def observability_probe(params: ObsNodeParams, control: ControlPath, z_pairs,
                        horizon: float, n_samples: int = 50,
                        int_cfg: IntegrationConfig | None = None):
    """Min over state pairs of the max-over-time output discrepancy under a
    shared control; strictly positive values witness distinguishability."""
    cfg = params.cfg
    if int_cfg is None:
        int_cfg = IntegrationConfig(method="rk4", step_size=horizon / max(n_samples, 1))
    times = np.linspace(0.0, horizon, n_samples + 1)[1:]
    field, _ = stack_field(params)
    best = np.inf
    for zeta, eta in z_pairs:
        zeta = np.asarray(zeta, dtype=np.float64).reshape(1, -1)
        eta = np.asarray(eta, dtype=np.float64).reshape(1, -1)
        if np.linalg.norm(zeta - eta) < 1e-3:
            raise ValueError("observability_probe: pair members too close")
        ya = integrate(field, Tensor(zeta), control, 0.0, horizon, int_cfg, times)
        yb = integrate(field, Tensor(eta), control, 0.0, horizon, int_cfg, times)
        disc = max(float(np.max(np.abs(emit(sa, cfg).data - emit(sb, cfg).data)))
                   for sa, sb in zip(ya, yb))
        best = min(best, disc)
    return best


def read_grid_csv(path) -> RmseGrid:
    """The grid :func:`~obsnode.evaluate.write_grid_csv` wrote to `path`."""
    rows = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != ["t_c", "horizon", "component", "rmse", "n_points"]:
            raise DataError(f"unexpected grid header: {header}")
        for row in rd:
            rows.append((float(row[0]), float(row[1]), int(row[2]),
                         np.nan if row[3] == "" else float(row[3]), int(row[4])))
    tcs = sorted({r[0] for r in rows})
    hs = sorted({r[1] for r in rows})
    d_y = max(r[2] for r in rows) + 1
    values = np.full((len(tcs), len(hs), d_y), np.nan)
    counts = np.zeros((len(tcs), len(hs), d_y), dtype=int)
    for tc, s, j, v, c in rows:
        values[tcs.index(tc), hs.index(s), j] = v
        counts[tcs.index(tc), hs.index(s), j] = c
    return RmseGrid(np.array(tcs), np.array(hs), values, counts)


def counterfactual_rmse(params, stats, sim_config: CancerSimConfig, unit_ids,
                        schedule_fn, t_c, horizons, int_cfg=None) -> RmseGrid:
    """Interventional check against the simulator.

    For each patient: simulate the factual noisy record, derive an
    alternative dose schedule via `schedule_fn(factual_schedule)`, re-simulate
    with noise off under that schedule for the ground truth, and score the
    model forecast (encoded from the factual history up to t_c, rolled out
    under the alternative doses).
    """
    horizons = np.sort(np.asarray(horizons, dtype=np.float64))
    unit_ids = list(unit_ids)
    patients = sample_cohort_params(sim_config, unit_ids)
    facts = simulate_cancer_cohort(patients, sim_config, unit_ids)
    scheds = np.stack([np.asarray(schedule_fn(f.latents.copy()), dtype=np.float64)
                       for f in facts])
    truths = simulate_cancer_cohort(patients, replace(sim_config, noise=False),
                                    unit_ids, dose_schedule=scheds)

    record, oracle = stack_units(facts), stack_units(truths)
    _, fut = window(record.times, t_c, t_c + horizons[-1])
    qts = record.times[fut]
    cycle_starts = np.arange(sim_config.n_cycles) * sim_config.cycle_days
    ctrl = ControlPath(cycle_starts, np.stack(scheds, axis=1))
    pred = raw_forecast(record, t_c, qts, params, stats, int_cfg, ctrl)
    scale = _test_scale(record.y, record.mask)
    values, counts = _binned_rmse(qts, pred, oracle.y[fut], oracle.mask[fut],
                                  t_c, horizons, scale)
    return RmseGrid(np.array([t_c]), horizons, values[None], counts[None])


def naive_conditional(scm: DiscreteScm, q: InterventionQuery):
    """Observational P(y_target | prefix, a-sequence observed): no severing."""
    joint = enumerate_joint(scm)
    fixed, keep = _query_axes(scm, q, with_actions=True)
    return _reduce(joint, fixed, keep)


def mean_patient():
    """A patient whose rates are the population means, with tumor volume 1,
    weight 70 and both dose sensitivities mid-range."""
    mu = {name: mean for name, (mean, _) in PARAM_DISTS.items()}
    return CancerPatientParams(**mu, K=K_TUMOR, beta_r=mu["alpha_r"] / 10.0, K_w=70.0,
                               alpha_c_dose=2.5, alpha_r_dose=2.5, v0=1.0, w0=70.0)
