"""Fixed-step explicit integration of controlled vector fields.

Controls are piecewise constant. Step boundaries are aligned so that every
control knot and every query time falls exactly on a boundary (local step
shortening only), so query values never come from interpolation. When states
or parameters require grad, every step is recorded on the active tape and
gradients flow back through the solver (discrete adjoint).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, NumericError


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


@dataclass
class IntegrationConfig:
    method: str = "rk4"
    step_size: float = 0.25
    max_steps: int = 1_000_000

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
    each segment at sizes <= cfg.step_size."""
    anchors = {float(t0), float(t1)}
    anchors.update(float(t) for t in query_times)
    for kt in control.knot_times:
        if t0 < kt < t1:
            anchors.add(float(kt))
    anchors = sorted(anchors)
    edges = [anchors[0]]
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        span = hi - lo
        nsub = max(1, int(np.ceil(span / cfg.step_size - 1e-12)))
        for j in range(1, nsub):
            edges.append(lo + span * j / nsub)
        edges.append(hi)
    return edges


def _rk4_step(field, z, a, params, dt):
    k1 = field(z, a, params)
    k2 = field(ad.add(z, ad.scale(k1, dt / 2.0)), a, params)
    k3 = field(ad.add(z, ad.scale(k2, dt / 2.0)), a, params)
    k4 = field(ad.add(z, ad.scale(k3, dt)), a, params)
    incr = ad.add(ad.add(k1, ad.scale(ad.add(k2, k3), 2.0)), k4)
    return ad.add(z, ad.scale(incr, dt / 6.0))


def _euler_step(field, z, a, params, dt):
    return ad.add(z, ad.scale(field(z, a, params), dt))


def integrate(field, z0, control: ControlPath, t0, t1,
              cfg: IntegrationConfig, query_times, params=None):
    """Integrate ``dz/dt = field(z, a_t, params)`` and return the states at
    `query_times` (list of Tensors, same shape as z0).

    `a_t` is the constant control value on the current step, wrapped as a
    Tensor; `params` is passed through to the field untouched.
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

    z = z0 if isinstance(z0, Tensor) else Tensor(z0)
    step = _rk4_step if cfg.method == "rk4" else _euler_step
    edges = _step_boundaries(t0, t1, control, query_times, cfg)
    if len(edges) - 1 > cfg.max_steps:
        raise NumericError(f"integrate: {len(edges) - 1} steps exceed max_steps={cfg.max_steps}")

    out = {}
    qset = set(query_times)

    def note(t, state):
        if t in qset:
            out[t] = state

    note(edges[0], z)
    for lo, hi in zip(edges[:-1], edges[1:]):
        a = Tensor(control.value_at(lo))
        z = step(field, z, a, params, hi - lo)
        ad._check_finite(f"integrate: the state at t={hi}", z.data)
        note(hi, z)
    return [out[qt] for qt in query_times]


def convergence_order(field, z0, control, t0, t1, cfg, reference, halvings=3):
    """Estimated order log2(err(dt)/err(dt/2)), averaged over `halvings`.

    `reference` is the analytic solution at t1 (array). Returns None when the
    coarsest error is already below 1e-13 (inconclusive).
    """
    errs = []
    dt = cfg.step_size
    for _ in range(halvings + 1):
        c = IntegrationConfig(method=cfg.method, step_size=dt, max_steps=cfg.max_steps)
        (zT,) = integrate(field, Tensor(np.asarray(z0, dtype=np.float64)),
                          control, t0, t1, c, [t1])
        errs.append(float(np.max(np.abs(zT.data - np.asarray(reference)))))
        dt /= 2.0
    if errs[0] < 1e-13:
        return None
    orders = [np.log2(e0 / e1) for e0, e1 in zip(errs[:-1], errs[1:])]
    return float(np.mean(orders))
