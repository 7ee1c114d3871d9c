"""Exact verification of the treatment-effect adjustment on finite models.

A finite-state structural causal model with a hidden confounder channel has
a confounder and a latent state that evolve as Markov chains, outcomes
emitted from (state, confounder), and treatments drawn from a policy reading
the last outcome and the confounder. The estimator computes the adjustment
formula as the paper writes it: the filter over latent states given the
observed history, taken by forward messages over (confounder, state) (the
forward algorithm, Rabiner 1989), propagated under the intervened actions
and pushed through the confounder-marginalized emission. The oracle it is
checked against enumerates every trajectory consistent with the query's
conditioning and intervention: the ground-truth interventional
distribution, obtained by severing the policy. A constructed
pair of models with indistinguishable latent states shows that without
observability the same observational law admits different interventional
answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import _sigmoid
from .errors import DataError

MAX_TRAJECTORIES = 10_000_000
# the most cells one random_observable_scm instance enumerates for its
# random_query: 2^3 confounder, 4^3 latent and 4^2 unconditioned outcome values
QUERY_CELLS = 2 ** 3 * 4 ** 3 * 4 ** 2
MAX_VERIFY_CELLS = 1_000_000_000  # instances x QUERY_CELLS in one verification
KERNELS = ("eps_init", "eps_trans", "z_init", "z_trans", "emission", "policy")
# the outcome symbols each latent state of a random instance emits on, as
# [lo, hi) ranges of its 4 outcomes, for 3 and 4 latent states: the split
# np.array_split(np.arange(4), n_z) makes
OUTCOME_GROUPS = {3: ((0, 2), (2, 3), (3, 4)), 4: ((0, 1), (1, 2), (2, 3), (3, 4))}


def _check_rows(name, arr):
    """DataError unless `arr` is finite and its last axis holds
    distributions, to 1e-12."""
    if not np.isfinite(arr).all():
        raise DataError(f"{name}: non-finite probability")
    if np.any(arr < -1e-12):
        raise DataError(f"{name}: negative probability")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        raise DataError(f"{name}: rows must sum to 1 (max dev "
                        f"{np.max(np.abs(sums - 1.0)):.3e})")


@dataclass
class DiscreteScm:
    """Finite SCM over T steps.

    eps_init (nE,), eps_trans (nE, nE): hidden confounder chain.
    z_init (nZ,), z_trans (nA, nZ, nZ): latent dynamics (no confounder input).
    emission (nZ, nE, nY): outcome law q(y | z, eps).
    policy (nY, nE, nA): treatment law pi(a_t | y_t, eps_t).
    """

    eps_init: np.ndarray
    eps_trans: np.ndarray
    z_init: np.ndarray
    z_trans: np.ndarray
    emission: np.ndarray
    policy: np.ndarray
    T: int

    def __post_init__(self):
        if self.T < 2:
            raise DataError("DiscreteScm: need T >= 2")
        kernels = [np.asarray(getattr(self, name), dtype=np.float64) for name in KERNELS]
        for name, arr in zip(KERNELS, kernels):
            setattr(self, name, arr)
        # one pass over all six: the smallest entry and the largest row-sum
        # deviation, in comparisons that NaN fails; only a failure checks
        # them one by one, to name the first failing kernel
        sums = np.concatenate([arr.sum(axis=-1).ravel() for arr in kernels])
        lo = np.concatenate([arr.ravel() for arr in kernels]).min(initial=0.0)
        dev = np.abs(sums - 1.0).max(initial=0.0)
        if not (lo >= -1e-12 and dev <= 1e-12):
            for name, arr in zip(KERNELS, kernels):
                _check_rows(name, arr)

    @property
    def sizes(self):
        return (self.eps_init.size, self.z_init.size,
                self.emission.shape[2], self.policy.shape[2])


@dataclass
class InterventionQuery:
    """Condition on (y_0..y_t, a_0..a_{t-1}), intervene on a_t..a_{t+s-1},
    ask for the distribution of y_{t+s}."""

    y_prefix: tuple
    a_prefix: tuple
    intervention: tuple

    def __post_init__(self):
        self.y_prefix = tuple(int(v) for v in self.y_prefix)
        self.a_prefix = tuple(int(v) for v in self.a_prefix)
        self.intervention = tuple(int(v) for v in self.intervention)
        if len(self.y_prefix) != len(self.a_prefix) + 1:
            raise DataError("query: need one more observed outcome than past "
                            "treatments")
        if not self.intervention:
            raise DataError("query: empty intervention sequence")

    @property
    def t(self):
        return len(self.a_prefix)

    @property
    def target(self):
        return self.t + len(self.intervention)


def enumerate_joint(scm: DiscreteScm, policy_overrides=None, fixed=None):
    """Exact joint over the trajectories that agree with `fixed`.

    Axis layout: [e_0..e_{T-1}, z_0..z_{T-1}, y_0..y_{T-1}, a_0..a_{T-2}].
    `policy_overrides` maps a step index to the action forced at that step.
    `fixed` maps an axis to the value it is conditioned on: each kernel is
    cut to that value before it is placed, so the axis has size 1 and only
    the agreeing trajectories are built (factor reduction, Koller & Friedman
    2009, sec. 9.3). Without it the joint holds every trajectory. A cell is the
    product, left to right, of eps_init, z_init and emission at step 0, then
    per step t >= 1 of the policy at t - 1, eps_trans, z_trans and emission.
    A severed step's policy is 1.0 at the forced action and 0.0 elsewhere;
    where `fixed` holds that action, its factor is 1.0 and is left out.
    """
    nE, nZ, nY, nA = scm.sizes
    T = scm.T
    fixed, overrides = fixed or {}, policy_overrides or {}
    dims = [nE] * T + [nZ] * T + [nY] * T + [nA] * (T - 1)
    cuts = [slice(None)] * len(dims)
    for ax, v in fixed.items():
        cuts[ax], dims[ax] = slice(v, v + 1), 1
    count = math.prod(dims)
    if count > MAX_TRAJECTORIES:
        raise DataError(f"enumerate_joint: {count} trajectories exceed "
                        f"{MAX_TRAJECTORIES}")
    # kernel views whose axes ascend in the joint's layout
    emission = scm.emission.transpose(1, 0, 2)  # (e_t, z_t, y_t)
    policy = scm.policy.transpose(1, 0, 2)      # (e_t, y_t, a_t)
    z_trans = scm.z_trans.transpose(1, 2, 0)    # (z_t, z_{t+1}, a_t)

    def place(kernel, *axes):  # cut on the fixed axes, reshaped onto the joint
        shape = [1] * len(dims)
        for ax in axes:
            shape[ax] = dims[ax]
        return kernel[tuple([cuts[ax] for ax in axes])].reshape(shape)

    joint = place(scm.eps_init, 0) * place(scm.z_init, T)
    joint = joint * place(emission, 0, T, 2 * T)
    for t in range(1, T):
        a_ax = 3 * T + t - 1
        if t - 1 not in overrides:
            joint = joint * place(policy, t - 1, 2 * T + t - 1, a_ax)
        elif fixed.get(a_ax) != overrides[t - 1]:
            # a severed step whose action the cut leaves free, or fixes to
            # another value; cut to its forced action the factor would be
            # ones over axes the joint already spans, and x * 1.0 is x
            pol = np.zeros_like(policy)
            pol[:, :, overrides[t - 1]] = 1.0
            joint = joint * place(pol, t - 1, 2 * T + t - 1, a_ax)
        joint = joint * place(scm.eps_trans, t - 1, t)
        joint = joint * place(z_trans, T + t - 1, T + t, a_ax)
        joint = joint * place(emission, t, T + t, 2 * T + t)
    return joint


def _reduce(joint, keep_axis):
    """Sum out every axis except keep_axis and normalize. Raises on a
    zero-probability conditioning event."""
    other = tuple(i for i in range(joint.ndim) if i != keep_axis)
    dist = joint.sum(axis=other)
    total = dist.sum()
    if total <= 0:
        raise DataError("conditioning prefix has zero probability")
    return dist / total


def _check_symbols(scm: DiscreteScm, outcomes, actions):
    """DataError unless every outcome and action is a symbol of the model's
    alphabets: a negative value would index the kernels from the end."""
    _, _, nY, nA = scm.sizes
    for kind, values, n in (("outcome", outcomes, nY), ("action", actions, nA)):
        for v in values:
            if not 0 <= v < n:
                raise DataError(f"{kind} {v} is outside the model's range 0..{n - 1}")


def _check_query(scm: DiscreteScm, q: InterventionQuery):
    """DataError unless the query's steps and symbols are the model's."""
    if q.target > scm.T - 1:
        raise DataError(f"query target step {q.target} exceeds horizon {scm.T - 1}")
    _check_symbols(scm, q.y_prefix, q.a_prefix + q.intervention)


def _query_axes(scm: DiscreteScm, q: InterventionQuery):
    """The joint's axes fixed by the query's outcomes and actions, prefix
    and intervention, as {axis: value}, and the target outcome's axis."""
    _check_query(scm, q)
    T = scm.T
    fixed = {}
    for k, y in enumerate(q.y_prefix):
        fixed[2 * T + k] = y
    for k, a in enumerate(q.a_prefix + q.intervention):
        fixed[3 * T + k] = a
    return fixed, 2 * T + q.target


def interventional_truth(scm: DiscreteScm, q: InterventionQuery):
    """Ground-truth P(y_target | prefix, do(intervention)) by severing the
    policy at the intervened steps and enumerating."""
    overrides = {q.t + k: a for k, a in enumerate(q.intervention)}
    fixed, keep = _query_axes(scm, q)
    return _reduce(enumerate_joint(scm, overrides, fixed), keep)


def filter_distribution(scm: DiscreteScm, y_prefix, a_prefix):
    """p(z_t | y_0..y_t, a_0..a_{t-1}), confounder marginalized out, by
    forward messages alpha_t(e, z) = P(e_t = e, z_t = z, y_0..y_t,
    a_0..a_{t-1}):

        alpha_0(e, z) = p(e) p(z) q(y_0 | z, e)
        alpha_{t+1}(e', z') = sum_{e,z} alpha_t(e, z) pi(a_t | y_t, e)
                              P(e' | e) P_{a_t}(z' | z) q(y_{t+1} | z', e')

    Raises DataError on a prefix of zero probability."""
    if len(y_prefix) != len(a_prefix) + 1:
        raise DataError("filter: need one more observed outcome than past treatments")
    if len(a_prefix) > scm.T - 1:
        raise DataError(f"filter: prefix step {len(a_prefix)} exceeds horizon {scm.T - 1}")
    _check_symbols(scm, y_prefix, a_prefix)
    q_y = scm.emission.transpose(1, 0, 2)  # (nE, nZ, nY)
    alpha = np.outer(scm.eps_init, scm.z_init) * q_y[:, :, y_prefix[0]]
    for y, a, y_next in zip(y_prefix, a_prefix, y_prefix[1:]):
        alpha = alpha * scm.policy[y, :, a][:, None]
        alpha = scm.eps_trans.T @ alpha @ scm.z_trans[a] * q_y[:, :, y_next]
    dist = alpha.sum(axis=0)
    total = dist.sum()
    if total <= 0:
        raise DataError("conditioning prefix has zero probability")
    return dist / total


def eps_marginal(scm: DiscreteScm, step):
    mu = scm.eps_init
    for _ in range(step):
        mu = mu @ scm.eps_trans
    return mu


def modeler_emission(scm: DiscreteScm, step):
    """The observation law a fitted model can learn: p(y | z) with the
    confounder integrated out against its prior marginal at `step`."""
    mu = eps_marginal(scm, step)
    return np.einsum("zey,e->zy", scm.emission, mu)


def adjustment_estimate(scm: DiscreteScm, q: InterventionQuery):
    """Filter x latent propagation x emission: the discrete adjustment."""
    _check_query(scm, q)
    filt = filter_distribution(scm, q.y_prefix, q.a_prefix)
    prop = scm.z_trans[q.intervention[0]]
    for a in q.intervention[1:]:
        prop = prop @ scm.z_trans[a]
    dist = filt @ prop @ modeler_emission(scm, q.target)
    return dist / dist.sum()


def tv_distance(p, r):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(r)).sum())


def observational_law(scm: DiscreteScm):
    """Joint over the observables (y_0..y_{T-1}, a_0..a_{T-2})."""
    joint = enumerate_joint(scm)
    return joint.sum(axis=tuple(range(2 * scm.T)))


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def _rand_dist(rng, shape):
    x = rng.uniform(0.1, 1.0, size=shape)
    return x / x.sum(axis=-1, keepdims=True)


def random_observable_scm(rng) -> DiscreteScm:
    """Random instance where the adjustment provably applies: the confounder
    is white noise (memoryless chain) and each latent state emits on its own
    disjoint set of outcome symbols, so outcomes pin down the state. It has
    3 or 4 latent states, 4 outcomes, 2 actions, 2 confounder values and
    T = 3 steps.

    The pieces are deliberately far from uniform (permutation-shaped
    transitions, 85%-compliance policies) so that observational conditioning
    on treatments is genuinely biased and the test instances exercise
    confounding rather than averaging it away."""
    n_z, n_y, n_a, n_e, T = int(rng.integers(3, 5)), 4, 2, 2, 3
    eps_init = _rand_dist(rng, (n_e,))
    eps_trans = np.array([eps_init] * n_e)
    # disjoint outcome alphabet per state; within its alphabet a state's
    # outcome weights are peaked and depend on the confounder
    emission = np.zeros((n_z, n_e, n_y))
    for z, (lo, hi) in enumerate(OUTCOME_GROUPS[n_z]):
        if hi - lo == 1:
            # a lone symbol is emitted surely (w / w.sum() is 1.0), so its
            # weights only advance the stream; rng.integers(1) draws nothing
            rng.uniform(0.0, 1.0, n_e)
            emission[z, :, lo] = 1.0
            continue
        for e in range(n_e):
            w = rng.uniform(0.0, 1.0, hi - lo)
            w[rng.integers(hi - lo)] += 3.0
            emission[z, e, lo:hi] = w / w.sum()
    # per action, a permutation of the states, then its rows' uniform noise
    z_trans = np.array([np.eye(n_z)[rng.permutation(n_z)] + rng.uniform(0.0, 0.15, (n_z, n_z))
                         for _ in range(n_a)])
    z_trans /= z_trans.sum(axis=2, keepdims=True)
    pref = rng.integers(0, n_a, size=(n_y, n_e))
    policy = np.where(pref[:, :, None] == np.arange(n_a), 0.15 / n_a + 0.85, 0.15 / n_a)
    return DiscreteScm(
        eps_init=eps_init, eps_trans=eps_trans,
        z_init=_rand_dist(rng, (n_z,)),
        z_trans=z_trans, emission=emission, policy=policy, T=T,
    )


def random_query(rng, scm: DiscreteScm) -> InterventionQuery:
    """Off-policy query: condition on a random positive-probability y_0 and
    intervene, over all remaining steps, with the action sequence least
    likely under the observational law (where confounding bias shows most)."""
    # forward messages msg[e, z, k] = P(e_t = e, z_t = z, y_0, a_0..a_t),
    # the action sequence k in row-major order; the outcomes after y_0 are
    # summed out, so from step 1 on the emission and the policy fold into
    # G[e, z, a] = sum_y q(y | z, e) pi(a | y, e)
    nE, nZ, _, nA = scm.sizes
    alpha = np.einsum("e,z,zey->yez", scm.eps_init, scm.z_init, scm.emission)
    cands = np.nonzero(alpha.sum(axis=(1, 2)) > 1e-9)[0]
    y0 = int(cands[rng.integers(0, cands.size)])  # the draw rng.choice(cands) makes
    G = np.einsum("zey,yea->eza", scm.emission, scm.policy)
    msg = alpha[y0][:, :, None] * scm.policy[y0][:, None, :]  # (e, z, a_0)
    for _ in range(scm.T - 2):
        msg = np.einsum("ef,ezka,azw->fwka", scm.eps_trans,
                        msg.reshape(nE, nZ, -1, nA), scm.z_trans)
        msg = (msg.reshape(nE, nZ, -1, 1) * G[:, :, None, :]).reshape(nE, nZ, -1)
    cond = msg.sum(axis=(0, 1))
    seq = np.unravel_index(np.argmin(cond), (nA,) * (scm.T - 1))
    return InterventionQuery((y0,), (), tuple(int(s) for s in seq))


def collapse_states(scm: DiscreteScm, groups) -> DiscreteScm:
    """Merge latent states that behave identically (same emissions and same
    transition rows once columns are merged, to 1e-9); errors if they do
    not."""
    n_new = len(groups)
    n_z = scm.z_init.size
    proj = np.zeros((n_z, n_new))
    for g, members in enumerate(groups):
        for z in members:
            proj[z, g] = 1.0
    if not np.allclose(proj.sum(axis=1), 1.0):
        raise DataError("collapse_states: groups must partition the states")

    z_init = scm.z_init @ proj
    z_trans = np.zeros((scm.z_trans.shape[0], n_new, n_new))
    emission = np.zeros((n_new, scm.emission.shape[1], scm.emission.shape[2]))
    for g, members in enumerate(groups):
        rows_t = scm.z_trans[:, members, :] @ proj       # (nA, |g|, n_new)
        rows_e = scm.emission[members]                    # (|g|, nE, nY)
        if np.max(np.abs(rows_t - rows_t[:, :1])) > 1e-9:
            raise DataError(f"collapse_states: group {g} transitions differ")
        if np.max(np.abs(rows_e - rows_e[:1])) > 1e-9:
            raise DataError(f"collapse_states: group {g} emissions differ")
        z_trans[:, g, :] = rows_t[:, 0]
        emission[g] = rows_e[0]
    return DiscreteScm(eps_init=scm.eps_init, eps_trans=scm.eps_trans,
                       z_init=z_init, z_trans=z_trans, emission=emission,
                       policy=scm.policy, T=scm.T)


def nonidentifiability_witness():
    """Two models with identical observational laws but different causal
    answers.

    Latents: a root that emits 0, two treatment-tracking states c0/c1 that
    emit their index, and a confounder-echo state that emits the (persistent)
    confounder value. The policy copies the confounder into the action. In
    model A the action drives the state (y_t echoes the previous action); in
    model B the state falls into the echo (y_t echoes the confounder). The
    two mechanisms produce the same observations because the action equals
    the confounder on-policy, yet an off-policy intervention separates them
    completely.
    """
    R, C0, C1, N = 0, 1, 2, 3
    n_e, n_y, n_a = 2, 2, 2
    eps_init = np.array([0.5, 0.5])
    eps_trans = np.eye(2)  # persistent confounder
    z_init = np.zeros(4)
    z_init[R] = 1.0
    emission = np.zeros((4, n_e, n_y))
    emission[R, :, 0] = 1.0
    emission[C0, :, 0] = 1.0
    emission[C1, :, 1] = 1.0
    emission[N, 0, 0] = 1.0
    emission[N, 1, 1] = 1.0
    policy = np.zeros((n_y, n_e, n_a))
    policy[:, 0, 0] = 1.0
    policy[:, 1, 1] = 1.0

    z_trans_a = np.zeros((n_a, 4, 4))
    for a in range(n_a):
        for z in (R, C0, C1):
            z_trans_a[a, z, C0 + a] = 1.0
        z_trans_a[a, N, N] = 1.0
    z_trans_b = np.zeros((n_a, 4, 4))
    z_trans_b[:, :, N] = 1.0

    common = dict(eps_init=eps_init, eps_trans=eps_trans, z_init=z_init,
                  emission=emission, policy=policy, T=3)
    scm_a = DiscreteScm(z_trans=z_trans_a, **common)
    scm_b = DiscreteScm(z_trans=z_trans_b, **common)

    query = InterventionQuery(y_prefix=(0, 1), a_prefix=(1,), intervention=(0,))

    truth_a = interventional_truth(scm_a, query)
    truth_b = interventional_truth(scm_b, query)
    adj_a = adjustment_estimate(scm_a, query)
    adj_b = adjustment_estimate(scm_b, query)
    collapsed = collapse_states(scm_a, [[R, C0], [C1], [N]])
    truth_c = interventional_truth(collapsed, query)
    adj_c = adjustment_estimate(collapsed, query)

    report = {
        "observational_tv": tv_distance(observational_law(scm_a).ravel(),
                                        observational_law(scm_b).ravel()),
        "interventional_tv": tv_distance(truth_a, truth_b),
        "adjustment_tv_between_models": tv_distance(adj_a, adj_b),
        "adjustment_error_a": tv_distance(adj_a, truth_a),
        "adjustment_error_b": tv_distance(adj_b, truth_b),
        "collapsed_adjustment_error": tv_distance(adj_c, truth_c),
        "emission_model": "per-state outcome law with the confounder "
                          "integrated out against its prior marginal",
    }
    return scm_a, scm_b, query, report


def linear_gaussian_refinement():
    """Deviation of the discretized adjustment from the analytic answer for a
    linear-Gaussian system, per grid refinement level: 9, 17 and 33 points
    on [-4, 4].

    System: z' = 0.8 z + 0.5 a + N(0, 0.3^2), y = z + N(0, 0.3^2),
    z_0 ~ N(0, 1), binary action with P(a=1|y) = sigmoid(y). The reported
    number is |E[y_1 | y_0 = c_n, do(a=1)] - analytic at c_n| where c_n is
    the grid point nearest c; the analytic posterior mean of z_0 given
    y_0 = c_n is c_n/(1 + r^2).
    """
    rho, beta, q_sd, r_sd, c = 0.8, 0.5, 0.3, 0.3, 1.0
    out = []
    for n in (9, 17, 33):
        grid = np.linspace(-4.0, 4.0, n)

        def pdf_rows(means, sd):
            p = np.exp(-0.5 * ((grid[None, :] - means[:, None]) / sd) ** 2)
            return p / p.sum(axis=1, keepdims=True)

        z_init = np.exp(-0.5 * grid ** 2)
        z_init /= z_init.sum()
        z_trans = np.stack([pdf_rows(rho * grid + beta * a, q_sd)
                            for a in (0, 1)])
        emission = pdf_rows(grid, r_sd)[:, None, :]
        p1 = _sigmoid(grid)
        policy = np.stack([1.0 - p1, p1], axis=1)[:, None, :]
        scm = DiscreteScm(eps_init=np.array([1.0]), eps_trans=np.eye(1),
                          z_init=z_init, z_trans=z_trans, emission=emission,
                          policy=policy, T=2)
        y0 = int(np.argmin(np.abs(grid - c)))
        analytic = rho * grid[y0] / (1.0 + r_sd ** 2) + beta
        q = InterventionQuery((y0,), (), (1,))
        dist = adjustment_estimate(scm, q)
        out.append(abs(float(dist @ grid) - analytic))
    return out
