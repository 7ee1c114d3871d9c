"""Probes and readers that only the tests use, built on the obsnode API.

The test modules import them with ``from support import ...``: pytest puts
this directory on ``sys.path`` when it imports a test module from it.
"""

import csv
import itertools
import json
from dataclasses import replace

import numpy as np

from obsnode import autodiff as ad
from obsnode.autodiff import Tensor
from obsnode.errors import DataError, ShapeMismatch
from obsnode.evaluate import RmseGrid, _binned_rmse, raw_forecasts
from obsnode.identify import (DiscreteScm, InterventionQuery, _query_axes, _rand_dist,
                              _reduce, enumerate_joint, observational_law)
from obsnode.model import (History, NormStats, ObsNodeParams, decision_split, emit, encode,
                           forecast, param_shapes, stack_field)
from obsnode.odeint import ControlPath, IntegrationConfig, integrate
from obsnode.simulate import (K_TUMOR, PARAM_DISTS, CancerPatientParams, CancerSimConfig,
                              sample_cohort_params, simulate_cancer_cohort)
from obsnode.train import (_decisions, masked_loss, stack_units, zscore_fit, zscore_invert,
                           zscore_outcomes)


def op_graph_affine(x, W, b):
    """x @ W + b as the op graph of matmul, expand and add: the reference for
    the encoder's affine head (``model._head``)."""
    n = x.data.shape[0]
    return ad.add(ad.matmul(x, W), ad.expand(b, (n, b.data.shape[1])))


def op_graph_emissions(states, d_y):
    """The reference for :func:`~obsnode.model.emissions`: one slice_axis
    per state, then concat and reshape."""
    preds = [ad.slice_axis(z, 0, d_y, axis=1) for z in states]
    return ad.reshape(ad.concat(preds, axis=0), (len(preds),) + preds[0].data.shape)


def op_graph_loss(pred, y, mask, sigma2):
    """The reference for :func:`~obsnode.train.masked_loss`: its weights,
    and the op graph of sub, square, hadamard and tsum."""
    T, n, d_y = y.shape
    counts = mask.sum(axis=0)
    weights = mask / (n * np.asarray(sigma2) * np.where(counts > 0, counts, 1.0))
    err = ad.sub(pred, Tensor(y))
    return ad.tsum(ad.hadamard(ad.square(err), Tensor(weights)))


class PerTensorAdam:
    """The reference for :class:`~obsnode.autodiff.Adam`: the same update
    one tensor at a time, on tensors that need share no buffer, the clip
    norm summed one float per tensor in order, without the overflow
    rescaling."""

    def __init__(self, tensors, lr=1e-3):
        self.tensors = list(tensors)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]

    def step(self, max_grad_norm=None):
        grads = [np.zeros_like(t.data) if t.grad is None else t.grad for t in self.tensors]
        for t, g in zip(self.tensors, grads):
            if t.data.shape != g.shape:
                raise ShapeMismatch("Adam.step", t.data.shape, g.shape)
        if max_grad_norm is not None:
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if norm > max_grad_norm:
                grads = [g * (max_grad_norm / norm) for g in grads]
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for t, g, m, v in zip(self.tensors, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            t.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class PerBlockParams:
    """The checkpoint entries of `params` copied into separate Tensors, one
    per name, as the per-block op graphs read them: phi[i][l] = (W, b) of
    block i + 1, enc by gate name (Wr, Ur, br, ...), b_impute, head_W and
    head_b; by_name in :func:`~obsnode.model.param_shapes` order."""

    def __init__(self, params: ObsNodeParams):
        self.cfg = cfg = params.cfg
        t = self.by_name = {name: Tensor(arr.copy(), requires_grad=True)
                            for name, arr in params.state().items()}
        self.phi = [[(t[f"phi{i}.W{l}"], t[f"phi{i}.b{l}"]) for l in range(cfg.phi_layers + 1)]
                    for i in range(1, cfg.m + 1)]
        self.enc = {name[4:]: v for name, v in t.items() if name.startswith("enc.")}
        self.b_impute, self.head_W, self.head_b = t["b_impute"], t["head.W"], t["head.b"]

    def tensors(self):
        return list(self.by_name.values())


class GateViews:
    """`params` as the per-gate op graph of the encoder reads it: enc by gate
    name (Wr, Ur, br, ...) as leaf Tensors viewing the stored gates' data
    and gradient buffers, so the graph accumulates into the stored
    gradients in place; build it after those buffers are filled. The
    other tensors are the stored ones."""

    def __init__(self, params: ObsNodeParams):
        W, U, Uh, b = params.enc

        def view(t, j=None):
            part = Tensor(t.data if j is None else t.data[j], requires_grad=t.requires_grad)
            part.grad = t.grad if j is None or t.grad is None else t.grad[j]
            return part

        self.cfg = params.cfg
        self.enc = {"Uh": view(Uh)}
        for j, gate in enumerate("ruh"):
            self.enc.update({"W" + gate: view(W, j), "b" + gate: view(b, j)})
            if gate != "h":
                self.enc["U" + gate] = view(U, j)
        self.b_impute, self.head_W, self.head_b = params.b_impute, params.head_W, params.head_b


def stored_names(cfg):
    """Names of the stored tensors of :class:`~obsnode.model.ObsNodeParams`
    in the order of its tensors()."""
    phi = ["phi.W0z", "phi.W0c", "phi.b0"] + [f"phi.{k}{l}" for l in range(1, cfg.phi_layers + 1)
                                              for k in "Wb"]
    return phi + ["enc.W", "enc.U", "enc.Uh", "enc.b", "b_impute", "head.W", "head.b"]


def checkpoint_grads(params: ObsNodeParams):
    """{name: gradient} of the checkpoint entries, read off the stored
    tensors' gradients (zero where a stored tensor has none), in
    :func:`~obsnode.model.param_shapes` order."""
    flat = np.concatenate([(np.zeros(t.data.size) if t.grad is None else t.grad.reshape(-1))
                           for t in params.tensors()])
    return {name: flat[ix].reshape(shape)
            for (name, shape), ix in zip(param_shapes(params.cfg), params.parts)}


def padding(params: ObsNodeParams):
    """The mask of the stored first-layer z rows that are padding: block
    i's rows past z^(1..i)."""
    cfg = params.cfg
    rows = np.arange(cfg.d_z)[None, :, None] >= cfg.d_y * np.arange(1, cfg.m + 1)[:, None, None]
    return np.broadcast_to(rows, params.phi[0].data.shape)


def identity_stats(d_y):
    """Norm stats of mean 0 and std 1, for a checkpoint or forecast whose
    test does not care about the outcome units."""
    return NormStats(np.zeros(d_y), np.ones(d_y))


def random_params(cfg, seed, scale=1.0):
    """Parameters whose every checkpoint entry is drawn N(0, scale^2) from
    `seed`, the padding of the stored layout left at zero."""
    params = ObsNodeParams(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    params.load_state({name: rng.normal(0.0, scale, size=shape)
                       for name, shape in param_shapes(cfg)})
    return params


def value_at(control: ControlPath, t: float) -> np.ndarray:
    """The value of the piecewise-constant `control` at time t: that of the
    last knot at or before t, or the first knot's before it."""
    k = int(np.searchsorted(control.knot_times, t, side="right")) - 1
    return control.knot_values[max(k, 0)]


def convergence_order(field, z0, control, t0, t1, cfg, reference, halvings=3):
    """Estimated order log2(err(dt)/err(dt/2)), averaged over `halvings`.

    `reference` is the analytic solution at t1 (array). Returns None when the
    coarsest error is already below 1e-13 (inconclusive).
    """
    errs = []
    dt = cfg.step_size
    for _ in range(halvings + 1):
        c = IntegrationConfig(step_size=dt)
        (zT,) = integrate(field, Tensor(np.asarray(z0, dtype=np.float64)),
                          control, t0, c, [t1], ())
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
        int_cfg = IntegrationConfig(step_size=horizon / max(n_samples, 1))
    times = np.linspace(0.0, horizon, n_samples + 1)[1:]
    field, _ = stack_field(params)
    best = np.inf
    for zeta, eta in z_pairs:
        zeta = np.asarray(zeta, dtype=np.float64).reshape(1, -1)
        eta = np.asarray(eta, dtype=np.float64).reshape(1, -1)
        if np.linalg.norm(zeta - eta) < 1e-3:
            raise ValueError("observability_probe: pair members too close")
        ya = integrate(field, Tensor(zeta), control, 0.0, int_cfg, times, ())
        yb = integrate(field, Tensor(eta), control, 0.0, int_cfg, times, ())
        disc = max(float(np.max(np.abs(emit(sa, cfg).data - emit(sb, cfg).data)))
                   for sa, sb in zip(ya, yb))
        best = min(best, disc)
    return best


def read_grid_csv(path) -> RmseGrid:
    """The grid :func:`~obsnode.evaluate.write_grid_csvs` wrote to `path`."""
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
    k, j = decision_split(record.times, t_c, horizons[-1])
    cycle_starts = np.arange(sim_config.n_cycles) * sim_config.cycle_days
    ctrl = ControlPath(cycle_starts, np.stack(scheds, axis=1))
    pred = raw_forecasts(record, [(k, j)], params, stats, int_cfg, ctrl)[0]
    scale = zscore_fit(facts).std
    values, counts = _binned_rmse(oracle, k, j, pred, t_c, horizons, scale)
    return RmseGrid(np.array([t_c]), horizons, values[None], counts[None])


def mask_window(times, start, end=None):
    """The reference for :func:`~obsnode.model.decision_split`: masks of
    `times` at or before `start` and in (start, end], or after `start` when
    `end` is None; a time within 1e-9 past a bound counts as on it."""
    before = times <= start + 1e-9
    inside = ~before
    if end is not None:
        inside &= times <= end + 1e-9
    return before, inside


def isin_factual_control(record, k, query_times) -> ControlPath:
    """The reference for the factual path of :func:`~obsnode.model.rollouts`: the
    treatment at times[k - 1] up to the first of `query_times` (record times
    after it), then the treatment recorded at each query time, found by
    value in the record, up to the next."""
    qts = np.asarray(query_times, dtype=np.float64)
    fut_a = record.a[np.isin(record.times, qts)]
    return ControlPath(np.concatenate([record.times[k - 1:k], qts[:-1]]),
                       np.concatenate([record.a[k - 1:k], fut_a[:-1]]))


def masked_binned_rmse(qts, pred, y, mask, t_c, horizons, scale):
    """The reference for :func:`~obsnode.evaluate._binned_rmse`: each horizon
    bin (t_c + s_{k-1}, t_c + s_k] picked from the predictions at `qts` by
    a :func:`mask_window` mask, its sums taken over boolean copies."""
    d_y = y.shape[2]
    err2 = (pred - y) ** 2 * mask
    lo = t_c + np.concatenate([[0.0], horizons[:-1]])
    hi = t_c + horizons
    values = np.full((horizons.size, d_y), np.nan)
    counts = np.zeros((horizons.size, d_y), dtype=int)
    for k in range(horizons.size):
        _, in_bin = mask_window(qts, lo[k], hi[k])
        c = mask[in_bin].sum(axis=(0, 1))
        counts[k] = c
        for j in range(d_y):
            if c[j] > 0:
                values[k, j] = np.sqrt(err2[in_bin][:, :, j].sum() / c[j]) / scale[j]
    return values, counts


def reencoded_rollout(record, t_c, query_times, params, int_cfg):
    """The reference for the shared encoder pass: the factual forecasts at
    `query_times`, as an array, from a fresh encode of the record's history
    up to t_c."""
    past, _ = mask_window(record.times, t_c)
    hist = History(record.times[past], record.y[past], record.mask[past], record.a[past])
    qts = np.asarray(query_times, dtype=np.float64)
    control = isin_factual_control(record, int(past.sum()), qts)
    return np.stack([p.data for p in forecast(encode(hist, params), control, list(qts),
                                              params, int_cfg)])


def reencoded_grid(test_trajs, t_c_grid, horizons, params, stats, int_cfg) -> RmseGrid:
    """The reference for :func:`~obsnode.evaluate.rmse_grid`: each decision
    time's forecasts from a fresh encode (:func:`reencoded_rollout`)."""
    horizons = np.sort(np.asarray(horizons, dtype=np.float64))
    t_c_grid = np.sort(np.asarray(t_c_grid, dtype=np.float64))
    record = stack_units(test_trajs)
    normed = History(record.times, zscore_outcomes(record.y, record.mask, stats),
                     record.mask, record.a)
    scale = zscore_fit(test_trajs).std
    values = np.full((t_c_grid.size, horizons.size, record.y.shape[2]), np.nan)
    counts = np.zeros(values.shape, dtype=int)
    for i, t_c in enumerate(t_c_grid):
        past, fut = mask_window(record.times, t_c, t_c + horizons[-1])
        if past.any() and fut.any():
            qts = record.times[fut]
            pred = zscore_invert(reencoded_rollout(normed, t_c, qts, params, int_cfg), stats)
            values[i], counts[i] = masked_binned_rmse(qts, pred, record.y[fut],
                                                      record.mask[fut], t_c, horizons, scale)
    return RmseGrid(t_c_grid, horizons, values, counts)


def reencoded_loss(trajs, params, sigma2, decision_times, tcfg) -> float:
    """The reference for :func:`~obsnode.train.evaluate_loss`: each decision
    time's forecasts from a fresh encode (:func:`reencoded_rollout`)."""
    record = stack_units(trajs)
    _, int_cfg = _decisions(record.times, decision_times, tcfg, "val")
    vals = []
    for t_c in decision_times:
        _, fut = mask_window(record.times, t_c, None if tcfg.max_horizon is None
                             else t_c + tcfg.max_horizon)
        pred = reencoded_rollout(record, t_c, record.times[fut], params, int_cfg)
        loss = masked_loss(Tensor(pred), record.y[fut], record.mask[fut], sigma2)
        vals.append(float(loss.data))
    return float(np.mean(vals))


def per_kernel_check(kernels):
    """The reference for `DiscreteScm`'s one-pass kernel check on finite
    kernels: each kernel checked on its own, in order, for an entry below
    -1e-12 and then for a row sum off 1 by more than 1e-12; the message of
    the first failure, or None."""
    for name, arr in kernels.items():
        arr = np.asarray(arr, dtype=np.float64)
        if np.any(arr < -1e-12):
            return f"{name}: negative probability"
        sums = arr.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            return f"{name}: rows must sum to 1 (max dev {np.max(np.abs(sums - 1.0)):.3e})"
    return None


def naive_conditional(scm: DiscreteScm, q: InterventionQuery):
    """Observational P(y_target | prefix, a-sequence observed): no severing."""
    fixed, keep = _query_axes(scm, q)
    return _reduce(enumerate_joint(scm, fixed=fixed), keep)


def enumerated_filter(scm: DiscreteScm, y_prefix, a_prefix):
    """The reference for :func:`~obsnode.identify.filter_distribution`:
    p(z_t | y_0..y_t, a_0..a_{t-1}) read off the enumerated joint."""
    T = scm.T
    fixed = {2 * T + k: int(y) for k, y in enumerate(y_prefix)}
    fixed.update({3 * T + k: int(a) for k, a in enumerate(a_prefix)})
    return _reduce(enumerate_joint(scm, fixed=fixed), T + len(a_prefix))


def full_joint_reduce(scm: DiscreteScm, overrides, fixed, keep_axis):
    """The reference for `enumerate_joint`'s `fixed` axes: the joint over
    every trajectory, indexed at the fixed values, summed onto keep_axis and
    normalized. Raises DataError on a zero-probability conditioning event."""
    joint = enumerate_joint(scm, overrides)
    slicer = [slice(None)] * joint.ndim
    for ax, v in fixed.items():
        slicer[ax] = v
    sub = joint[tuple(slicer)]
    keep_pos = keep_axis - sum(1 for ax in fixed if ax < keep_axis)
    dist = sub.sum(axis=tuple(i for i in range(sub.ndim) if i != keep_pos))
    total = dist.sum()
    if total <= 0:
        raise DataError("conditioning prefix has zero probability")
    return dist / total


def product_joint(scm: DiscreteScm, overrides=None, fixed=None):
    """The reference for :func:`~obsnode.identify.enumerate_joint`, built
    without it: one Python product per trajectory that agrees with `fixed`,
    its kernel entries multiplied in the documented order, over
    `itertools.product` of the axes; a severed step's policy is 1.0 at the
    forced action and 0.0 elsewhere. Fixed axes have size 1."""
    overrides, fixed = overrides or {}, fixed or {}
    T = scm.T
    nE, nZ, nY, nA = scm.sizes
    dims = [nE] * T + [nZ] * T + [nY] * T + [nA] * (T - 1)
    ranges = [[fixed[ax]] if ax in fixed else range(n) for ax, n in enumerate(dims)]
    e_init, e_trans, z_init, z_trans, emission, policy = (
        getattr(scm, k).tolist() for k in ("eps_init", "eps_trans", "z_init", "z_trans",
                                           "emission", "policy"))
    cells = []
    for cell in itertools.product(*ranges):
        e, z, y, a = cell[:T], cell[T:2 * T], cell[2 * T:3 * T], cell[3 * T:]
        p = e_init[e[0]] * z_init[z[0]] * emission[z[0]][e[0]][y[0]]
        for t in range(1, T):
            pol = (float(a[t - 1] == overrides[t - 1]) if t - 1 in overrides
                   else policy[y[t - 1]][e[t - 1]][a[t - 1]])
            p = (p * pol * e_trans[e[t - 1]][e[t]] * z_trans[a[t - 1]][z[t - 1]][z[t]]
                 * emission[z[t]][e[t]][y[t]])
        cells.append(p)
    return np.array(cells).reshape([len(r) for r in ranges])


def cellwise_observable_scm(rng) -> DiscreteScm:
    """The reference for :func:`~obsnode.identify.random_observable_scm`:
    the same instance drawn from `rng` one kernel row or cell at a time, in
    the same order."""
    n_z, n_y, n_a, n_e, T = int(rng.integers(3, 5)), 4, 2, 2, 3
    eps_init = _rand_dist(rng, (n_e,))
    eps_trans = np.tile(eps_init, (n_e, 1))
    groups = np.array_split(np.arange(n_y), n_z)
    emission = np.zeros((n_z, n_e, n_y))
    for z, g in enumerate(groups):
        for e in range(n_e):
            w = rng.uniform(0.0, 1.0, g.size)
            w[rng.integers(g.size)] += 3.0
            emission[z, e, g] = w / w.sum()
    z_trans = np.zeros((n_a, n_z, n_z))
    for a in range(n_a):
        perm = rng.permutation(n_z)
        for z in range(n_z):
            row = rng.uniform(0.0, 0.15, n_z)
            row[perm[z]] += 1.0
            z_trans[a, z] = row / row.sum()
    policy = np.full((n_y, n_e, n_a), 0.15 / n_a)
    pref = rng.integers(0, n_a, size=(n_y, n_e))
    for y in range(n_y):
        for e in range(n_e):
            policy[y, e, pref[y, e]] += 0.85
    return DiscreteScm(eps_init=eps_init, eps_trans=eps_trans, z_init=_rand_dist(rng, (n_z,)),
                       z_trans=z_trans, emission=emission, policy=policy, T=T)


def enumerated_query(rng, scm: DiscreteScm) -> InterventionQuery:
    """The reference for :func:`~obsnode.identify.random_query`, drawing
    from `rng` as it does: y_0 and the least likely action sequence read
    off the enumerated observational law."""
    law = observational_law(scm)
    y0_marg = law.reshape(law.shape[0], -1).sum(axis=1)
    y0 = int(rng.choice(np.nonzero(y0_marg > 1e-9)[0]))
    cond = law[y0].sum(axis=tuple(range(scm.T - 1)))
    seq = np.unravel_index(np.argmin(cond), cond.shape)
    return InterventionQuery((y0,), (), tuple(int(s) for s in seq))


def mean_patient():
    """A patient whose rates are the population means, with tumor volume 1,
    weight 70 and both dose sensitivities mid-range."""
    mu = {name: mean for name, (mean, _) in PARAM_DISTS.items()}
    return CancerPatientParams(**mu, K=K_TUMOR, beta_r=mu["alpha_r"] / 10.0, K_w=70.0,
                               alpha_c_dose=2.5, alpha_r_dose=2.5, v0=1.0, w0=70.0)


def rff_function(rng, input_dim, n_features, lengthscale):
    """The reference for :func:`~obsnode.simulate.rff_draw` and
    :func:`~obsnode.simulate.rff_eval`: one random-feature path, drawn in
    the same stream order, as a closure over one point set.

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


def plain_record(tr):
    """The reference for a line of :func:`~obsnode.simulate.write_dataset`:
    ``json.dumps`` of this dict is the unit's line, without its newline."""
    rec = {"unit_id": tr.unit_id, "times": tr.times.tolist(), "y": tr.y.tolist(),
           "mask": tr.mask.tolist(), "a": tr.a.tolist()}
    if tr.latents is not None:
        rec["latents"] = np.asarray(tr.latents).tolist()
    if tr.confounders is not None:
        rec["confounders"] = np.asarray(tr.confounders).tolist()
    return rec


MANIFEST_DEFECTS = ("version_99", "splits_a_list", "ids_out_of_order", "id_in_two_splits")


def break_manifest(ds, defect):
    """Change the dataset written at `ds` so that its manifest no longer
    describes it, as `defect` (one of MANIFEST_DEFECTS) names: format_version
    99, `splits` a list, the test split's ids listed in reverse, or the first
    train unit appended to the test split too. Returns the file that
    :func:`~obsnode.simulate.read_dataset` must name."""
    mpath = ds / "manifest.json"
    manifest = json.loads(mpath.read_text())
    if defect == "version_99":
        manifest["format_version"] = 99
    elif defect == "splits_a_list":
        manifest["splits"] = list(manifest["splits"])
    elif defect == "ids_out_of_order":
        manifest["splits"]["test"].reverse()
    else:
        line = (ds / "train.jsonl").read_text().splitlines()[0]
        with open(ds / "test.jsonl", "a") as fh:
            fh.write(line + "\n")
        manifest["splits"]["test"].append(json.loads(line)["unit_id"])
    mpath.write_text(json.dumps(manifest))
    return mpath if defect in MANIFEST_DEFECTS[:2] else ds / "test.jsonl"
