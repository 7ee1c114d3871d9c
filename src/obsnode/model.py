"""The ObsNODE model.

Latent dynamics in triangular observable normal form: the state is split into
m blocks of size d_y, block i drifts with z^(i+1) plus a learned correction
phi_i(z^(1..i), a), the last block is fully learned, and the observation is
the first block. A gated recurrent encoder that imputes missing observations
with learnable constants turns an irregular observation/treatment history into
a point estimate of the filtering state, from which forecasts under given
treatment paths are produced by integrating the field forward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError, ShapeMismatch
from .odeint import ControlPath, IntegrationConfig, integrate


@dataclass
class ObsNodeConfig:
    d_y: int
    m: int
    d_a: int
    phi_hidden_dim: int = 64
    phi_layers: int = 2
    phi_activation: str = "leakyrelu"
    encoder_hidden_dim: int = 64
    rollout_mode: str = "long_horizon"
    recursive_chunk: float = 1.0
    treatment_scale: tuple[float, ...] | None = None

    def __post_init__(self):
        if (min(self.d_y, self.m, self.phi_hidden_dim, self.encoder_hidden_dim) < 1
                or min(self.d_a, self.phi_layers) < 0):
            raise ConfigError("d_y, m, phi_hidden_dim and encoder_hidden_dim "
                              "must be >= 1, d_a and phi_layers >= 0")
        if self.treatment_scale is not None:
            self.treatment_scale = tuple(float(s) for s in self.treatment_scale)
            if len(self.treatment_scale) != self.d_a:
                raise ConfigError("treatment_scale must have d_a entries")
            if any(s <= 0 for s in self.treatment_scale):
                raise ConfigError("treatment_scale entries must be positive")
        if self.phi_activation not in ad.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.phi_activation!r}")
        if self.rollout_mode not in ("long_horizon", "recursive"):
            raise ConfigError(f"unknown rollout_mode {self.rollout_mode!r}")
        if self.rollout_mode == "recursive" and self.recursive_chunk <= 0:
            raise ConfigError("recursive_chunk must be positive")

    @property
    def d_z(self):
        return self.m * self.d_y

    @property
    def encoder_input_dim(self):
        # (imputed y, mask, treatment, delta-t)
        return 2 * self.d_y + self.d_a + 1


@dataclass
class EncodedState:
    z: Tensor  # (n, d_z)
    t: float


@dataclass
class History:
    """Per-time observation/treatment record, batched over units.

    times: (T,); y, mask: (T, n, d_y); a: (T, n, d_a). Missing y entries may
    hold any placeholder; mask defines validity. Records read from outside
    reach a History through :class:`~obsnode.simulate.Trajectory`, which
    enforces that rule by zeroing the placeholders.
    """

    times: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.times.size == 0:
            raise DataError("History: empty history")
        if np.any(np.diff(self.times) < 0):
            raise DataError("History: times must be ascending")

    def extended(self, times, y, mask, a):
        return History(
            np.concatenate([self.times, np.asarray(times, dtype=np.float64)]),
            np.concatenate([self.y, y]),
            np.concatenate([self.mask, mask]),
            np.concatenate([self.a, a]),
        )


def window(times, start, end=None):
    """Masks of `times` at or before `start` and in (start, end], or after
    `start` when `end` is None; a time within 1e-9 past a bound counts as on
    it, so a grid time rounded off a decision time stays on its side."""
    before = times <= start + 1e-9
    inside = ~before
    if end is not None:
        inside &= times <= end + 1e-9
    return before, inside


def _linear(x, W, b):
    n = x.data.shape[0]
    return ad.add(ad.matmul(x, W), ad.expand(b, (n, b.data.shape[1])))


def param_shapes(cfg: ObsNodeConfig):
    """(name, shape) of each parameter in named_parameters order. A
    generator, so a checkpoint can be checked against it one tensor at a
    time before anything is allocated."""
    d_y, H, hid = cfg.d_y, cfg.encoder_hidden_dim, cfg.phi_hidden_dim
    for i in range(1, cfg.m + 1):
        for l in range(cfg.phi_layers + 1):
            dout = d_y if l == cfg.phi_layers else hid
            yield f"phi{i}.W{l}", (i * d_y + cfg.d_a if l == 0 else hid, dout)
            yield f"phi{i}.b{l}", (1, dout)
    for gate in ("r", "u", "h"):
        yield f"enc.W{gate}", (cfg.encoder_input_dim, H)
        yield f"enc.U{gate}", (H, H)
        yield f"enc.b{gate}", (1, H)
    yield "b_impute", (1, d_y)
    yield "head.W", (H, cfg.d_z)
    yield "head.b", (1, cfg.d_z)


def check_state(arrays: dict, cfg: ObsNodeConfig):
    """DataError unless `arrays` holds every parameter of `cfg` in its shape."""
    for name, shape in param_shapes(cfg):
        if name not in arrays:
            raise DataError(f"checkpoint missing tensor {name!r}")
        if tuple(arrays[name].shape) != shape:
            raise DataError(f"checkpoint tensor {name!r} has shape "
                            f"{arrays[name].shape}, expected {shape}")


def check_dims(record: History, cfg: ObsNodeConfig, where: str):
    dims = record.y.shape[2:] + record.a.shape[2:]
    if dims != (cfg.d_y, cfg.d_a):
        raise DataError(f"{where}: record (d_y, d_a) {dims} != model {cfg.d_y, cfg.d_a}")


class ObsNodeParams:
    """All learnable parameters, held by name in :func:`param_shapes` order:
    phi-block MLPs, gated recurrent encoder, imputation constants, and the
    affine initial-state head; the other attributes are views of `by_name`."""

    def __init__(self, cfg: ObsNodeConfig, rng: np.random.Generator):
        self.cfg = cfg
        H = cfg.encoder_hidden_dim
        t = self.by_name = {}
        for name, shape in param_shapes(cfg):
            # biases start at zero, and so does each phi block's output
            # layer, so the initial dynamics is the pure chain of integrators
            layer = name.rsplit(".", 1)[-1]
            if layer[0] == "b" or name.startswith("phi") and layer == f"W{cfg.phi_layers}":
                data = np.zeros(shape)
            else:
                scale = 0.05 / np.sqrt(H) if name == "head.W" else 1.0 / np.sqrt(shape[0])
                data = rng.normal(0.0, scale, size=shape)
            t[name] = Tensor(data, requires_grad=True)
        self.phi = [[(t[f"phi{i}.W{l}"], t[f"phi{i}.b{l}"]) for l in range(cfg.phi_layers + 1)]
                    for i in range(1, cfg.m + 1)]
        self.enc = {name[4:]: v for name, v in t.items() if name.startswith("enc.")}
        self.b_impute, self.head_W, self.head_b = t["b_impute"], t["head.W"], t["head.b"]

    def named_parameters(self):
        return list(self.by_name.items())

    def tensors(self):
        return list(self.by_name.values())

    def load_state(self, arrays: dict):
        check_state(arrays, self.cfg)
        for name, t in self.by_name.items():
            t.data = arrays[name].copy()


def _unit_sum(g):
    """Sum the gradient g (n, k) of a (1, k) tensor over the units, as the op
    graph's expand does: a single unit's row passes unchanged."""
    return g.sum(axis=0, keepdims=True) if g.shape[0] > 1 else g


def _affine_vjp(g, x, W, b=None):
    """Backward of ``x @ W (+ b)`` for the upstream gradient g: accumulates
    the bias and weight gradients and returns the gradient for x."""
    if b is not None and b.requires_grad:
        ad._accum(b, _unit_sum(g))
    if W.requires_grad:
        ad._accum(W, x.T @ g)
    return g @ W.data.T


def stack_field(params: ObsNodeParams):
    """The vector field of the triangular normal form as (field, tensors)
    in the field protocol of :func:`~obsnode.odeint.integrate`. The m
    phi-blocks are one masked MLP (MADE, Germain et al., 2015) on [z, ctrl]:
    block i's first-layer columns read z^(1..i) and the control, the later
    layers are block-diagonal, and the masked weights are exact zeros.

    `tensors`, the stacked weights (first layer's z rows, control rows when
    d_a > 0, bias; then weight and bias per later layer), are assembled by
    one tape node whose backward pass scatters their gradients, zero-padded,
    back to the per-block tensors. Binding a control computes its scaling
    and first-layer term once.
    """
    cfg = params.cfg
    d_y, m, d_a = cfg.d_y, cfg.m, cfg.d_a
    widths = [cfg.phi_hidden_dim] * cfg.phi_layers + [d_y]
    # (stacked shape, pieces); a piece copies rows `src` of a block tensor to
    # rows `rows`, columns `cols` of the stacked array
    specs = []
    for l, w in enumerate(widths):
        cols = [slice(i * w, (i + 1) * w) for i in range(m)]
        Ws = [(params.phi[i][l][0], i, c) for i, c in enumerate(cols)]
        if l == 0:
            specs.append(((cfg.d_z, m * w), [(W, slice(0, (i + 1) * d_y),
                                              slice(0, (i + 1) * d_y), c) for W, i, c in Ws]))
            if d_a:
                specs.append(((d_a, m * w), [(W, slice((i + 1) * d_y, None), slice(None), c)
                                             for W, i, c in Ws]))
        else:
            v = widths[l - 1]
            specs.append(((m * v, m * w), [(W, slice(None), slice(i * v, (i + 1) * v), c)
                                           for W, i, c in Ws]))
        specs.append(((1, m * w), [(params.phi[i][l][1], slice(None), slice(None), c)
                                   for i, c in enumerate(cols)]))
    tensors = []
    for shape, pieces in specs:
        stacked = np.zeros(shape)
        for t, src, rows, cols in pieces:
            stacked[rows, cols] = t.data[src]
        tensors.append(Tensor(stacked))

    def scatter(g):
        for grad, (_, pieces) in zip([g] + [t.grad for t in tensors[1:]], specs):
            for t, src, rows, cols in pieces:
                if t.requires_grad:
                    full = np.zeros_like(t.data)
                    full[src] = grad[rows, cols]
                    ad._accum(t, full)

    # every use of the field accumulates into the first stacked tensor, so
    # the node's backward pass runs whenever any of them has a gradient
    ad._record(tensors[0], [t for _, pieces in specs for t, *_ in pieces], scatter)
    for t in tensors[1:]:
        t.requires_grad = tensors[0].requires_grad
    it = iter(tensors)
    W0z, W0c, b0 = next(it), next(it) if d_a else None, next(it)
    later = list(zip(it, it))
    act, act_vjp = ad.ACTIVATIONS[cfg.phi_activation]
    inv_scale = None if cfg.treatment_scale is None else 1.0 / np.asarray(cfg.treatment_scale)

    def field(a):
        ctrl = np.atleast_2d(a)
        if inv_scale is not None:
            ctrl = ctrl * inv_scale
        c = ctrl @ W0c.data + b0.data if d_a else b0.data

        def f(z):
            pre = z @ W0z.data + c
            cache = []  # (pre-activation, activation) per hidden layer
            for W, b in later:
                y = act(pre)
                cache.append((pre, y))
                pre = y @ W.data + b.data
            pre[:, :-d_y] += z[:, d_y:]  # the integrator chain

            def vjp(g):
                gpre = g
                for (W, b), (pre_l, y) in zip(reversed(later), reversed(cache)):
                    gpre = act_vjp(_affine_vjp(gpre, y, W, b), pre_l, y)
                gc = _unit_sum(gpre) if len(c) == 1 else gpre
                if b0.requires_grad:
                    ad._accum(b0, _unit_sum(gc))
                if d_a and W0c.requires_grad:
                    ad._accum(W0c, ctrl.T @ gc)
                chain = np.zeros_like(g)
                chain[:, d_y:] = g[:, :-d_y]
                return _affine_vjp(gpre, z, W0z) + chain

            return pre, vjp

        return f

    return field, tensors


def triangular_rhs(z, a, params: ObsNodeParams):
    """The field of :func:`stack_field` at the Tensor state z (n, d_z) under
    the constant control a, (n, d_a), (1, d_a) or the (d_a,) row of a
    single-trajectory control path (one that requires grad raises
    ValueError), recorded as the assembly node and one node of its own. A
    non-finite input or output raises NumericError. The solver does not
    call it."""
    cfg = params.cfg
    if a.requires_grad:
        raise ValueError("triangular_rhs: the control is a constant and cannot require grad")
    if z.data.shape[1] != cfg.d_z:
        raise ValueError(f"triangular_rhs: state dim {z.data.shape[1]} != {cfg.d_z}")
    try:
        np.broadcast_to(a.data, (z.data.shape[0], cfg.d_a))
    except ValueError:
        raise ShapeMismatch("triangular_rhs", z.shape, a.shape)
    ad._check_finite("triangular_rhs", z.data, a.data)
    field, tensors = stack_field(params)
    out, vjp = field(a.data)(z.data)
    ad._check_finite("triangular_rhs", out)

    def backward(g):
        gz = vjp(g)
        if z.requires_grad:
            ad._accum(z, gz)

    return ad._record(Tensor(out), [z, *tensors], backward)


def emit(z, cfg: ObsNodeConfig):
    """Observation map: the first state block of z (n, d_z)."""
    if z.data.shape[1] != cfg.d_z:
        raise ValueError(f"emit: state dim {z.data.shape[1]} != {cfg.d_z}")
    return ad.slice_axis(z, 0, cfg.d_y, axis=1)


def _gru_step(x, unobs, h, b_impute, enc):
    """One gated recurrent update on the input row x (n, 2 d_y + d_a + 1), whose
    first d_y columns are y imputed with b_impute where `unobs` (n, d_y) is 1.
    Computed on plain arrays and recorded as one tape node whose backward
    pass replays the graph of autodiff ops the cell is built from, with the
    same arithmetic and the same order of gradient accumulation, so values
    and gradients equal that graph's bit for bit; b_impute gets those
    columns' gradient. A non-finite input or output raises NumericError."""
    Wr, Ur, br, Wu, Uu, bu, Wh, Uh, bh = (
        enc[k] for k in ("Wr", "Ur", "br", "Wu", "Uu", "bu", "Wh", "Uh", "bh"))
    hd = h.data
    ad._check_finite("_gru_step", x, hd)
    sig, sig_vjp = ad.ACTIVATIONS["sigmoid"]
    tanh, tanh_vjp = ad.ACTIVATIONS["tanh"]
    pre_r = x @ Wr.data + br.data + hd @ Ur.data
    r = sig(pre_r)
    pre_u = x @ Wu.data + bu.data + hd @ Uu.data
    u = sig(pre_u)
    rh = r * hd
    pre_c = x @ Wh.data + bh.data + rh @ Uh.data
    cand = tanh(pre_c)
    keep = 1.0 - u
    out = keep * hd + u * cand
    ad._check_finite("_gru_step", out)

    def backward(g):
        # Reverse op order: the convex combination, the candidate, then the
        # update gate, then the reset gate; last the imputation.
        g_u = g * cand
        g_cand = g * u
        g_keep = g * hd
        if h.requires_grad:
            ad._accum(h, g * keep)
        g_u += -g_keep
        g_pre = tanh_vjp(g_cand, pre_c, cand)
        g_rh = _affine_vjp(g_pre, rh, Uh)
        g_r = g_rh * hd
        if h.requires_grad:
            ad._accum(h, g_rh * r)
        g_x = _affine_vjp(g_pre, x, Wh, bh)
        for g_gate, pre, gate, U, W, b in ((g_u, pre_u, u, Uu, Wu, bu),
                                           (g_r, pre_r, r, Ur, Wr, br)):
            g_pre = sig_vjp(g_gate, pre, gate)
            g_h = _affine_vjp(g_pre, hd, U)
            if h.requires_grad:
                ad._accum(h, g_h)
            g_x += _affine_vjp(g_pre, x, W, b)
        if b_impute.requires_grad:
            ad._accum(b_impute, _unit_sum(g_x[:, :unobs.shape[1]] * unobs))

    return ad._record(Tensor(out), (h, b_impute, Wr, Ur, br, Wu, Uu, bu, Wh, Uh, bh),
                      backward)


def encode(history: History, params: ObsNodeParams) -> EncodedState:
    """Run the recurrent cell over the history and map the final hidden state
    to a latent point estimate at the last history time. The cell inputs,
    (imputed y, mask, scaled treatment, delta-t) per time, are one array
    built before the loop."""
    cfg = params.cfg
    check_dims(history, cfg, "encode")
    T, n = history.y.shape[:2]
    mask, a = history.mask, history.a
    unobs = 1.0 - mask
    if cfg.treatment_scale is not None and cfg.d_a:
        a = a / np.asarray(cfg.treatment_scale)
    dt = np.diff(history.times, prepend=history.times[0])
    x = np.concatenate([history.y * mask + params.b_impute.data * unobs, mask, a,
                        np.broadcast_to(dt[:, None, None], (T, n, 1))], axis=2)
    h = Tensor(np.zeros((n, cfg.encoder_hidden_dim)))
    for k in range(T):
        h = _gru_step(x[k], unobs[k], h, params.b_impute, params.enc)
    z = _linear(h, params.head_W, params.head_b)
    return EncodedState(z=z, t=float(history.times[-1]))


def forecast(state: EncodedState, control: ControlPath, query_times, params: ObsNodeParams,
             int_cfg: IntegrationConfig, history: History | None = None):
    """Predicted outcomes at `query_times` under the given treatment path.

    Returns a list of (n, d_y) Tensors aligned with query_times. The horizon
    is covered in chunks, one in long-horizon mode: in recursive rollout mode
    each chunk's predictions are appended to the history as pseudo-observations
    (mask all ones) together with the applied treatments, the encoder is
    re-run, and the next chunk starts from the refreshed state. The
    pseudo-observations enter that re-encode as constants: the tape gradient
    does not flow through them into the earlier chunks' predictions. The
    stacked field (:func:`stack_field`) is assembled once per call.
    """
    cfg = params.cfg
    recursive = cfg.rollout_mode == "recursive"
    if recursive and history is None:
        raise ValueError("forecast: recursive rollout needs the encoding history")
    chunk = cfg.recursive_chunk if recursive else np.inf
    field, tensors = stack_field(params)
    preds = []
    remaining = [float(t) for t in sorted(query_times)]
    while remaining:
        chunk_end = min(state.t + chunk, remaining[-1])
        qs = [q for q in remaining if q <= chunk_end + 1e-12]
        step_queries = sorted(set(qs + [chunk_end]))
        states = integrate(field, state.z, control, state.t, chunk_end, int_cfg,
                           step_queries, tensors)
        by_time = dict(zip(step_queries, states))
        preds.extend(emit(by_time[q], cfg) for q in qs)
        remaining = remaining[len(qs):]
        if not remaining:
            break
        n = state.z.data.shape[0]
        new_times = np.array(step_queries)
        new_y = np.stack([emit(by_time[t], cfg).data for t in step_queries])
        new_mask = np.ones((len(step_queries), n, cfg.d_y))
        new_a = np.stack([np.broadcast_to(control.value_at(t), (n, cfg.d_a)).copy()
                          for t in step_queries])
        history = history.extended(new_times, new_y, new_mask, new_a)
        state = EncodedState(z=encode(history, params).z, t=chunk_end)
    return preds


def rollout(record: History, t_c, query_times, params: ObsNodeParams,
            int_cfg: IntegrationConfig | None = None,
            control: ControlPath | None = None):
    """Potential-outcome forecasts from one observed record: encode the
    record up to t_c, then forecast `query_times` (ascending, after t_c) under
    `control`.

    Without a control path the factual recorded treatments apply: the last
    treatment at or before t_c up to the first query time, then the treatment
    recorded at each query time up to the next. `int_cfg` defaults to
    :meth:`IntegrationConfig.for_grid` of the record times. Returns a list of
    (n, d_y) Tensors aligned with `query_times`.
    """
    past, _ = window(record.times, t_c)
    hist = History(record.times[past], record.y[past], record.mask[past],
                   record.a[past])
    qts = np.asarray(query_times, dtype=np.float64)
    if control is None:
        fut_a = record.a[np.isin(record.times, qts)]
        control = ControlPath(np.concatenate([hist.times[-1:], qts[:-1]]),
                              np.concatenate([hist.a[-1:], fut_a[:-1]]))
    if int_cfg is None:
        int_cfg = IntegrationConfig.for_grid(record.times)
    return forecast(encode(hist, params), control, list(qts), params, int_cfg,
                    history=hist)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_model(path, params: ObsNodeParams, norm_stats=None):
    """Write the parameters and a metadata header (config and, when given,
    the normalization statistics) as JSON, format_version 1; tensor values
    keep 17 significant digits."""
    meta = {"format_version": 1, "config": asdict(params.cfg), "cell": "gru"}
    if norm_stats is not None:
        meta["norm_stats"] = {"mean": list(map(float, norm_stats.mean)),
                              "std": list(map(float, norm_stats.std))}
    tensors = ", ".join(
        '{"name": %s, "shape": %s, "values": [%s]}'
        % (json.dumps(name), json.dumps(list(t.data.shape)),
           ", ".join(f"{v:.17g}" for v in t.data.reshape(-1)))
        for name, t in params.named_parameters())
    with open(path, "w") as fh:
        fh.write('{"format_version": 1, "metadata": ' + json.dumps(meta, sort_keys=True)
                 + ', "tensors": [' + tensors + "]}")


def load_model(path):
    """(params, cfg, norm stats or None) of a checkpoint written by
    :func:`save_model`. A missing or malformed file, a non-finite value, or
    metadata that does not describe the stored tensors raises DataError."""
    from .train import NormStats  # local import to avoid a cycle

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise DataError(f"checkpoint {path}: {e}")
    if not isinstance(doc, dict) or doc.get("format_version") != 1:
        raise DataError(f"checkpoint {path}: format_version must be 1")
    try:
        arrays = {e["name"]: np.array(e["values"], dtype=np.float64).reshape(e["shape"])
                  for e in doc["tensors"]}
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint {path}: malformed tensors: {e!r}")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise DataError(f"checkpoint {path}: tensor {name!r} has a non-finite value")
    meta = doc.get("metadata")
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise DataError(f"checkpoint {path}: missing the model metadata header")
    try:
        cfg = ObsNodeConfig(**meta["config"])
        stats = None
        if "norm_stats" in meta:
            stats = NormStats(mean=np.array(meta["norm_stats"]["mean"]),
                              std=np.array(meta["norm_stats"]["std"]))
        # the shapes the metadata implies are checked before they are allocated
        check_state(arrays, cfg)
    except (ConfigError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"checkpoint {path}: bad metadata: {e}")
    if stats is not None and not (stats.mean.shape == stats.std.shape == (cfg.d_y,)
                                  and np.isfinite([stats.mean, stats.std]).all()
                                  and (stats.std > 0).all()):
        raise DataError(f"checkpoint {path}: norm_stats must be {cfg.d_y} finite "
                        "means and positive stds")
    params = ObsNodeParams(cfg, np.random.default_rng(0))
    params.load_state(arrays)
    return params, cfg, stats
