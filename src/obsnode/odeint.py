"""Fixed-step explicit integration of controlled vector fields.

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
from .errors import ConfigError, DataError, NumericError, ShapeMismatch


@dataclass
class ControlPath:
    """Piecewise-constant control: value on [knot_times[k], knot_times[k+1]) is
    knot_values[k]; the last value extends to the right.

    knot_values has shape (k, d_a) for a single trajectory or (k, n, d_a) for a
    batch sharing knot times.
    """

    knot_times: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self):
        self.knot_times = np.asarray(self.knot_times, dtype=np.float64)
        self.knot_values = np.asarray(self.knot_values, dtype=np.float64)
        if self.knot_times.ndim != 1 or self.knot_times.size < 1:
            raise DataError("ControlPath: need at least one knot")
        if np.any(np.diff(self.knot_times) <= 0):
            raise DataError("ControlPath: knot_times must be strictly increasing")
        if self.knot_values.shape[0] != self.knot_times.size:
            raise DataError("ControlPath: one value per knot required")

    def value_at(self, t: float) -> np.ndarray:
        k = int(np.searchsorted(self.knot_times, t, side="right")) - 1
        return self.knot_values[max(k, 0)]


METHODS = ("euler", "rk4")
MAX_STEPS = 1_000_000  # per integrate call


@dataclass
class IntegrationConfig:
    method: str = "rk4"
    step_size: float = 0.25

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.step_size <= 0:
            raise ConfigError("step_size must be positive")

    @classmethod
    def for_grid(cls, times, method="rk4"):
        """Default config for an observation grid: a step of a quarter of the
        smallest spacing of `times`."""
        return cls(method=method, step_size=float(np.min(np.diff(times))) / 4.0)


def _step_boundaries(t0, t1, control, query_times, cfg):
    """All step edges: control knots, query times, and uniform subdivision of
    each segment at sizes <= cfg.step_size. The steps are counted before any
    edge is made: more than MAX_STEPS raise NumericError."""
    anchors = {float(t0), float(t1)}
    anchors.update(float(t) for t in query_times)
    for kt in control.knot_times:
        if t0 < kt < t1:
            anchors.add(float(kt))
    anchors = sorted(anchors)
    segments = [(lo, hi, max(1, int(np.ceil((hi - lo) / cfg.step_size - 1e-12))))
                for lo, hi in zip(anchors[:-1], anchors[1:])]
    n_steps = sum(nsub for _, _, nsub in segments)
    if n_steps > MAX_STEPS:
        raise NumericError(f"integrate: {n_steps} steps exceed MAX_STEPS={MAX_STEPS}")
    edges = [anchors[0]]
    for lo, hi, nsub in segments:
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


def _step(f, z, h, rk4, params, t):
    """One Euler or RK4 step of size h from the Tensor z with the bound field
    f, recorded as one tape node whose inputs are z and `params`; t, the
    step's end time, names it in errors. The forward pass runs the stages
    on arrays and scans the new state once for finiteness. The backward
    pass runs the stages' VJPs in reverse
    (discretise-then-optimise: Kidger 2022, *On Neural Differential
    Equations*, section 5), and a non-finite state gradient raises
    NumericError there."""
    zd = z.data
    k1, v1 = f(zd)
    if rk4:
        k2, v2 = f(zd + k1 * (h / 2.0))
        k3, v3 = f(zd + k2 * (h / 2.0))
        k4, v4 = f(zd + k3 * h)
        out = zd + (k1 + (k2 + k3) * 2.0 + k4) * (h / 6.0)
    else:
        out = zd + k1 * h
    if out.shape != zd.shape:
        raise ShapeMismatch("integrate: the field's value", out.shape, zd.shape)
    ad._check_finite(f"integrate: the state at t={t}", out)

    def backward(g):
        if rk4:
            # g1 reaches k1 and k4 through the update, g2 reaches k2 and k3;
            # s_i is the gradient at the input of stage i
            g1 = g * (h / 6.0)
            g2 = g1 * 2.0
            s4 = v4(g1)
            s3 = v3(g2 + s4 * h)
            s2 = v2(g2 + s3 * (h / 2.0))
            gz = g + v1(g1 + s2 * (h / 2.0)) + s2 + s3 + s4
        else:
            gz = g + v1(g * h)
        ad._check_finite(f"integrate: the state gradient at t={t}", gz)
        if z.requires_grad:
            ad._accum(z, gz)

    return ad._record(Tensor(out), (z, *params), backward)


def integrate(field, z0, control: ControlPath, t0, t1,
              cfg: IntegrationConfig, query_times, params=()):
    """Integrate ``dz/dt = f(z)`` from the Tensor z0 and return the states at
    `query_times` (list of Tensors, same shape as z0).

    ``field(a)`` binds the control value a on a step (a row of
    ``control.knot_values``) and returns f. f maps a state array to
    ``(dz/dt, vjp)``; vjp maps a gradient of dz/dt to the gradient of the
    state and accumulates into the gradients of `params`, the Tensors the
    field reads. Each step is one tape node (:func:`_step`).
    """
    t0, t1 = float(t0), float(t1)
    if t1 < t0:
        raise ValueError(f"integrate: t1={t1} < t0={t0}")
    query_times = [float(t) for t in query_times]
    for qt in query_times:
        if qt < t0 - 1e-12 or qt > t1 + 1e-12:
            raise ValueError(f"query time {qt} outside [{t0}, {t1}]")
    # A query up to 1e-12 before t0 is a rounding of t0: it gets z0, and the
    # integration still starts at t0.
    query_times = [max(qt, t0) for qt in query_times]

    z = z0
    rk4 = cfg.method == "rk4"
    edges = _step_boundaries(t0, t1, control, query_times, cfg)

    out = {}
    qset = set(query_times)

    def note(t, state):
        if t in qset:
            out[t] = state

    note(edges[0], z)
    for lo, hi in zip(edges[:-1], edges[1:]):
        z = _step(field(control.value_at(lo)), z, hi - lo, rk4, params, hi)
        note(hi, z)
    return [out[qt] for qt in query_times]
