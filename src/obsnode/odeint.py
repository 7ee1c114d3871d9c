"""Fixed-step RK4 integration of controlled vector fields.

Controls are piecewise constant. Step boundaries are aligned so that every
control knot and every query time falls exactly on a boundary (local step
shortening only), so query values never come from interpolation. When states
or parameters require grad, every step is recorded on the active tape as one
node and gradients flow back through the solver (discrete adjoint).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, ShapeMismatch


@dataclass
class ControlPath:
    """Piecewise-constant control: value on [knot_times[k], knot_times[k+1]) is
    knot_values[k]; the last value extends to the right.

    knot_values has shape (k, d_a) for a single trajectory or (k, n, d_a) for a
    batch sharing knot times. Knot times finite and strictly increasing, and
    one finite value per knot, else DataError.
    """

    knot_times: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self):
        self.knot_times = np.asarray(self.knot_times, dtype=np.float64)
        self.knot_values = np.asarray(self.knot_values, dtype=np.float64)
        if self.knot_times.ndim != 1 or self.knot_times.size < 1:
            raise DataError("ControlPath: need at least one knot")
        if not (np.isfinite(self.knot_times).all() and np.isfinite(self.knot_values).all()):
            raise DataError("ControlPath: non-finite value")
        if np.any(np.diff(self.knot_times) <= 0):
            raise DataError("ControlPath: knot_times must be strictly increasing")
        if self.knot_values.shape[0] != self.knot_times.size:
            raise DataError("ControlPath: one value per knot required")


MAX_STEPS = 1_000_000  # per integrate call, and per decision of a rollout


@dataclass
class IntegrationConfig:
    step_size: float

    def __post_init__(self):
        if not 0 < self.step_size < np.inf:
            raise ConfigError("step_size must be positive and finite")

    @classmethod
    def for_grid(cls, times):
        """Default config for an observation grid: a step of a quarter of the
        smallest spacing of `times`."""
        return cls(step_size=float(np.min(np.diff(times))) / 4.0)


def grid_budget_error(times, reach, records="records"):
    """The DataError of a rollout over `reach` time units past MAX_STEPS at the
    :meth:`IntegrationConfig.for_grid` step, naming the `records`' smallest gap."""
    return DataError(f"the {records}' smallest time gap {float(np.min(np.diff(times)))!r} "
                     f"sets solver steps of {IntegrationConfig.for_grid(times).step_size!r}: "
                     f"a rollout over {float(reach)!r} time units takes more than {MAX_STEPS}")


def _steps_per_gap(anchors, step_size):
    """The solver steps over each gap of the ascending `anchors`: the fewest
    equal steps of at most `step_size`, and at least one. Floats, so a gap
    too long to count in steps is inf, not an overflow."""
    return np.maximum(1.0, np.ceil(np.diff(anchors) / step_size - 1e-12))


def _counted_steps(t0, knots, query_times, step_size):
    """The ascending anchors of a solve from t0 to its last query time t1 (t0,
    the query times and the array `knots` strictly between) and the steps over
    each gap (:func:`_steps_per_gap`); more than MAX_STEPS raise DataError."""
    t1 = max(query_times, default=t0)
    anchors = sorted({float(t0), *(float(t) for t in query_times),
                      *knots[(t0 < knots) & (knots < t1)].tolist()})
    steps = _steps_per_gap(anchors, step_size)
    if steps.sum() > MAX_STEPS:
        raise DataError(f"integrate: {steps.sum():.6g} steps exceed MAX_STEPS={MAX_STEPS}")
    return anchors, steps


def _step_boundaries(t0, control, query_times, cfg):
    """All step edges: control knots, query times, and uniform subdivision of
    each segment at sizes <= cfg.step_size. The steps are counted before any
    edge is made (:func:`_counted_steps`)."""
    anchors, steps = _counted_steps(t0, control.knot_times, query_times, cfg.step_size)
    edges = [anchors[0]]
    for lo, hi, nsub in zip(anchors[:-1], anchors[1:], steps.astype(int).tolist()):
        span = hi - lo
        for j in range(1, nsub):
            edges.append(lo + span * j / nsub)
        edges.append(hi)
    return edges


def _rk4_step(field, z, a, params, dt):
    """One RK4 step of the Tensor field ``field(z, a, params)`` as a graph of
    autodiff ops. The solver does not call it: :func:`integrate` records each
    step as one node (:func:`_step`)."""
    k1 = field(z, a, params)
    k2 = field(ad.add(z, ad.scale(k1, dt / 2.0)), a, params)
    k3 = field(ad.add(z, ad.scale(k2, dt / 2.0)), a, params)
    k4 = field(ad.add(z, ad.scale(k3, dt)), a, params)
    incr = ad.add(ad.add(k1, ad.scale(ad.add(k2, k3), 2.0)), k4)
    return ad.add(z, ad.scale(incr, dt / 6.0))


def _step(field, z, h, params, t):
    """One RK4 step of size h from the Tensor z with the bound field
    (f, rebuild), recorded as one tape node whose inputs are z and `params`;
    t, the step's end time, names it in errors. The forward pass runs the
    four stages on arrays, keeps their inputs and scans the new state once
    for finiteness. The backward pass calls rebuild on those inputs stacked
    and runs the stages' VJPs in reverse (discretise-then-optimise: Kidger
    2022, *On Neural Differential Equations*, section 5); a non-finite
    state gradient raises NumericError there."""
    f, rebuild = field
    zd = z.data
    k1 = f(zd)
    k2 = f(z2 := zd + k1 * (h / 2.0))
    k3 = f(z3 := zd + k2 * (h / 2.0))
    k4 = f(z4 := zd + k3 * h)
    out = zd + (k1 + (k2 + k3) * 2.0 + k4) * (h / 6.0)
    if out.shape != zd.shape:
        raise ShapeMismatch("integrate: the field's value", out.shape, zd.shape)
    ad._check_finite(f"integrate: the state at t={t}", out)

    def backward(g):
        vjp = rebuild(np.stack((zd, z2, z3, z4)))
        # g1 reaches k1 and k4 through the update, g2 reaches k2 and k3;
        # s_i is the gradient at the input of stage i
        g1 = g * (h / 6.0)
        g2 = g1 * 2.0
        s4 = vjp(3, g1)
        s3 = vjp(2, g2 + s4 * h)
        s2 = vjp(1, g2 + s3 * (h / 2.0))
        gz = g + vjp(0, g1 + s2 * (h / 2.0)) + s2 + s3 + s4
        ad._check_finite(f"integrate: the state gradient at t={t}", gz)
        ad._accum(z, gz)

    return ad._record(Tensor(out), (z, *params), backward)


def integrate(field, z0, control: ControlPath, t0, cfg: IntegrationConfig, query_times,
              params):
    """Integrate ``dz/dt = f(z)`` from the Tensor z0 at t0 to the last of
    `query_times` and return the states at `query_times` (list of Tensors,
    same shape as z0); a query time before t0 raises ValueError. z0 may
    carry leading axes that f broadcasts over, such as the decisions that
    :func:`~obsnode.model.rollouts` steps in lockstep rather than in extra rows.

    ``field(a)`` binds the control value a (a row of ``control.knot_values``)
    and returns (f, rebuild); it is called once per control segment. f maps
    a state array to dz/dt and keeps nothing. Only a backward pass calls
    rebuild, once per step (:func:`_step`), on the step's four stage inputs
    stacked on a leading axis, (4, n, d_z); it recomputes what the VJPs read,
    so a step node holds no more than those inputs and the bound control,
    and returns vjp(i, g), which maps a gradient of stage i's dz/dt to that
    of its input and accumulates into the gradients of `params`, the
    Tensors the field reads.
    """
    t0 = float(t0)
    query_times = [float(t) for t in query_times]
    for qt in query_times:
        if not qt >= t0:
            raise ValueError(f"query time {qt} is not at or after t0={t0}")

    z = z0
    edges = _step_boundaries(t0, control, query_times, cfg)
    # every query time is an edge; those at t0 keep z0
    out = dict.fromkeys(query_times, z0)
    # the knot whose value holds on each step: the last one at or before the
    # step's start, else the first
    knots = np.maximum(np.searchsorted(control.knot_times, edges[:-1], side="right") - 1, 0)
    bound = None
    for lo, hi, k in zip(edges[:-1], edges[1:], knots):
        if k != bound:
            pair, bound = field(control.knot_values[k]), k
        z = _step(pair, z, hi - lo, params, hi)
        if hi in out:
            out[hi] = z
    return [out[qt] for qt in query_times]
