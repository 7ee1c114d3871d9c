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
from .odeint import ControlPath, IntegrationConfig, _counted_steps, integrate


@dataclass
class ObsNodeConfig:
    d_y: int
    m: int
    d_a: int
    phi_hidden_dim: int = 64
    phi_layers: int = 2
    encoder_hidden_dim: int = 64
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
            # below about 5.6e-309, 1 / s overflows and the scaled doses are inf
            if not all(0 < s < np.inf and np.isfinite(1.0 / s) for s in self.treatment_scale):
                raise ConfigError("treatment_scale entries must be positive and finite, "
                                  "with a finite reciprocal")

    @property
    def d_z(self):
        return self.m * self.d_y

    @property
    def encoder_input_dim(self):
        # (imputed y, mask, treatment, delta-t)
        return 2 * self.d_y + self.d_a + 1


@dataclass
class EncodedState:
    z: Tensor  # (n, d_z), or (1, n, d_z) for rollouts
    t: float


@dataclass
class History:
    """A record of observations and treatments, batched over units. Its
    construction applies :meth:`checked`, the one rule of every record:
    times (T,) nonempty, finite and strictly increasing; y and mask (T, n,
    d_y), a (T, n, d_a); mask entries 0 or 1; observed y and all of a
    finite. A record that breaks it is a DataError, and each unobserved y
    entry becomes +0.0 whatever placeholder it held."""

    times: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.times, self.y, self.mask, self.a = History.checked(
            self.times, self.y, self.mask, self.a, "History", ndim=3)

    @staticmethod
    def checked(times, y, mask, a, where, ndim):
        """The record rule on float64 arrays of (times, y, mask, a), whose
        outcome arrays have `ndim` axes, 2 for one unit's (T, d_y); returns
        them with each unobserved y entry +0.0, or raises DataError
        starting with `where`."""
        times, y, mask, a = (np.asarray(v, dtype=np.float64) for v in (times, y, mask, a))
        T = times.size
        if (times.ndim != 1 or T == 0 or not np.isfinite(times).all()
                or np.any(np.diff(times) <= 0)):
            raise DataError(f"{where}: times must be nonempty, finite and strictly increasing")
        if (y.ndim != ndim or a.ndim != ndim or mask.shape != y.shape
                or y.shape[:-1] != a.shape[:-1] or len(y) != T):
            dims = "T, n" if ndim == 3 else "T"
            raise DataError(f"{where}: with T={T}, y {y.shape} and mask {mask.shape} must "
                            f"be ({dims}, d_y), a {a.shape} ({dims}, d_a)")
        observed = mask == 1.0
        if not (observed | (mask == 0.0)).all():
            raise DataError(f"{where}: mask entries must be 0 or 1")
        y = np.where(observed, y, 0.0)
        if not (np.isfinite(y).all() and np.isfinite(a).all()):
            raise DataError(f"{where}: non-finite observed y or a")
        return times, y, mask, a


def decision_split(times, t_c, horizon=None):
    """The index pair (k, j) of a decision at t_c on the ascending `times`, or
    None unless 0 < k < j: the history times[:k] is at or before t_c, the
    targets times[k:j] after it, up to t_c + `horizon` if one is given. A time
    within 1e-9 past a bound counts as on it, so a grid time rounded off a
    decision time stays on its side; no time is at or before a NaN bound."""
    end = np.inf if horizon is None else t_c + horizon
    k, j = (0 if np.isnan(b) else int(np.searchsorted(times, b + 1e-9, side="right"))
            for b in (t_c, end))
    return (k, j) if 0 < k < j else None


def param_shapes(cfg: ObsNodeConfig):
    """(name, shape) of each checkpoint entry, in checkpoint order. A
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


MAX_PARAMS = 10_000_000  # learnable numbers in one model


def param_count(cfg: ObsNodeConfig) -> int:
    """The number of learnable numbers in :func:`param_shapes`, in closed form
    (Python ints, so a huge config costs no more than a small one)."""
    d_y, m, hid, H = cfg.d_y, cfg.m, cfg.phi_hidden_dim, cfg.encoder_hidden_dim
    # rows of the m first layers: block i reads i * d_y + d_a inputs, plus a bias
    rows0 = d_y * m * (m + 1) // 2 + m * cfg.d_a + m
    if cfg.phi_layers == 0:
        phi = rows0 * d_y
    else:
        phi = rows0 * hid + m * (hid + 1) * ((cfg.phi_layers - 1) * hid + d_y)
    return phi + 3 * (cfg.encoder_input_dim + H + 1) * H + d_y + (H + 1) * cfg.d_z


def check_size(cfg: ObsNodeConfig):
    """ConfigError, naming the keys that set the size, when the parameter
    count of `cfg` passes MAX_PARAMS."""
    if param_count(cfg) > MAX_PARAMS:
        raise ConfigError(f"d_y, m, d_a, phi_hidden_dim, phi_layers and "
                          f"encoder_hidden_dim give more than MAX_PARAMS={MAX_PARAMS} "
                          "parameters")


def check_state(arrays: dict, cfg: ObsNodeConfig):
    """DataError unless `arrays` holds every parameter of `cfg` in its shape,
    and nothing else."""
    for name, shape in param_shapes(cfg):
        if name not in arrays:
            raise DataError(f"checkpoint missing tensor {name!r}")
        if tuple(arrays[name].shape) != shape:
            raise DataError(f"checkpoint tensor {name!r} has shape "
                            f"{arrays[name].shape}, expected {shape}")
    known = dict(param_shapes(cfg))  # no larger than arrays: each entry is in it
    if unknown := [name for name in arrays if name not in known]:
        raise DataError(f"checkpoint tensor {unknown[0]!r} is not a parameter of the config")


def check_dims(record: History, cfg: ObsNodeConfig, where: str):
    dims = record.y.shape[2:] + record.a.shape[2:]
    if dims != (cfg.d_y, cfg.d_a):
        raise DataError(f"{where}: record (d_y, d_a) {dims} != model {cfg.d_y, cfg.d_a}")


class ObsNodeParams:
    """All learnable parameters, stored once, as the fused nodes read them:
    :class:`~obsnode.autodiff.Param` views of one flat buffer, `flat`.
    `phi` is [W0z, W0c, b0, W1, b1, ...], each stacked over the blocks:
    W0z (m, d_z, w) holds the first-layer z rows, exactly zero past
    z^(1..i), W0c the control rows. `enc` is (W (3, k, H), U (2, H, H),
    Uh, b (3, 1, H)), the gates in r, u, h order. `parts` holds, in
    :func:`param_shapes` order, each checkpoint entry's positions in `flat`
    (two slices, joined, for phi{i}.W0). Adam freezes the rest, the
    padding, so it stays +0.0. `int_cfg`, the step the parameters were
    trained at, is set by :func:`~obsnode.train.train` and :func:`load_model`."""

    def __init__(self, cfg: ObsNodeConfig, rng: np.random.Generator):
        self.cfg, self.int_cfg = cfg, None
        d_y, d_z, H, hid, L = (cfg.d_y, cfg.d_z, cfg.encoder_hidden_dim,
                               cfg.phi_hidden_dim, cfg.phi_layers)
        m, w = cfg.m, hid if L else d_y
        shapes = [(m, d_z, w), (m, cfg.d_a, w), (m, 1, w)]
        shapes += [s for l in range(1, L + 1)
                   for s in ((m, hid, d_y if l == L else hid), (m, 1, d_y if l == L else hid))]
        shapes += [(3, cfg.encoder_input_dim, H), (2, H, H), (H, H), (3, 1, H),
                   (1, d_y), (H, d_z), (1, d_z)]
        stored = ad.flat_params(shapes)
        self.flat = stored[0].data.base
        *self.phi, W, U, Uh, b, self.b_impute, self.head_W, self.head_b = stored
        self.enc = (W, U, Uh, b)
        P = ad.views(np.arange(self.flat.size), shapes)  # positions in `flat`
        W0z, W0c, *later = P[:2 * L + 3]
        Wp, Up, Uhp, bp = P[2 * L + 3:-3]
        where = []  # the checkpoint entries' positions, in param_shapes order
        for i in range(m):
            where.append((W0z[i, :(i + 1) * d_y], W0c[i]))  # z rows, control rows
            where += [(p[i],) for p in later]  # b0, W1, b1, ...
        for j in range(3):
            where += [(Wp[j],), (Up[j] if j < 2 else Uhp,), (bp[j],)]
        where += [(p,) for p in P[-3:]]  # b_impute, head.W, head.b
        ixs = [np.concatenate([p.reshape(-1) for p in part]) for part in where]
        self.parts = [slice(ix[0], ix[-1] + 1) if ix[-1] - ix[0] == ix.size - 1 else ix
                      for ix in ixs]
        for (name, shape), ix in zip(param_shapes(cfg), self.parts):
            # biases start at zero, and so does each phi block's output
            # layer, so the initial dynamics is the pure chain of integrators
            layer = name.rsplit(".", 1)[-1]
            if not (layer[0] == "b" or name.startswith("phi") and layer == f"W{L}"):
                scale = 0.05 / np.sqrt(H) if name == "head.W" else 1.0 / np.sqrt(shape[0])
                self.flat[ix] = rng.normal(0.0, scale, size=shape).reshape(-1)

    def tensors(self):
        """The stored tensors, in the order they tile `flat`."""
        return [*self.phi, *self.enc, self.b_impute, self.head_W, self.head_b]

    def state(self):
        """{name: array} of the checkpoint entries in :func:`param_shapes`
        order: views of `flat`, but for each phi{i}.W0, a joined copy."""
        return {name: self.flat[ix].reshape(shape)
                for (name, shape), ix in zip(param_shapes(self.cfg), self.parts)}

    def load_state(self, arrays: dict):
        check_state(arrays, self.cfg)
        for (name, _), ix in zip(param_shapes(self.cfg), self.parts):
            self.flat[ix] = arrays[name].reshape(-1)


def _unit_sum(g):
    """Sum the gradient g (..., n, k) of a (..., 1, k) tensor over the units,
    as the op graph's expand does: a single unit's row passes unchanged."""
    return np.add.reduce(g, axis=-2, keepdims=True) if g.shape[-2] > 1 else g


def _affine_vjp(g, x, W, Wd, b=None):
    """Backward of ``x @ Wd (+ b)``, Wd the data of W, also batched over
    leading block axes, for the upstream gradient g: accumulates the bias
    and weight gradients and returns the gradient for x."""
    if b is not None:
        ad._accum(b, _unit_sum(g))
    ad._accum(W, x.mT @ g)
    return g @ Wd.mT


def _head(x, W, b, lead=()):
    """The affine head x @ W + b of the Tensors x (n, H), W (H, d_z) and
    b (1, d_z) as one node, rounded as matmul, expand and add round it,
    with the leading axes `lead`: (1,) for a state :func:`rollouts` steps."""
    y = x.data @ W.data + b.data
    return ad._record(Tensor(y.reshape(lead + y.shape)), (x, W, b), lambda g: ad._accum(
        x, _affine_vjp(g.reshape(y.shape), x.data, W, W.data, b)))


def stack_field(params: ObsNodeParams):
    """The vector field of the triangular normal form as (field, tensors)
    in the field protocol of :func:`~obsnode.odeint.integrate`, `tensors`
    being the stored phi tensors (:class:`ObsNodeParams`). Each layer of
    the m phi-blocks is one batched product over the blocks,
    (m, n, v) @ (m, v, w); the first layer's input, [z, ctrl], is shared,
    and every hidden layer is a leaky ReLU. Each block's first-layer z rows
    are zero past z^(1..i) (the masks of MADE, Germain et al., 2015), so the
    field stays triangular. The weights' arrays are read once here; binding
    a control scales it once and makes its first-layer term once for f,
    which runs the leaky ReLU in place; rebuild, which keeps only the scaled
    control, makes the term again. A state may carry leading axes (the
    decisions :func:`rollouts` steps in lockstep, the stages of a step that
    rebuild takes), which the control term and the bias tiles broadcast
    over: each product takes one (n, .) operand and rounds as a single
    state's does, where extra rows would not (a narrow product's row rounds
    otherwise at another row count); so rebuild gives each stage's hidden
    layers bitwise as f made them, and vjp sums each parameter's gradient
    over the decisions. Temporaries scale with the leading axes, n and w.
    """
    cfg = params.cfg
    d_y, m = cfg.d_y, cfg.m
    tensors = params.phi
    W0z, W0c, b0, *rest = tensors
    later = [(W, W.data, b, b.data) for W, b in zip(rest[::2], rest[1::2])]
    W0zd, W0cd, b0d = W0z.data, W0c.data, b0.data
    act, keep, act_vjp = ad.ACTIVATIONS["leakyrelu"]
    inv_scale = None if cfg.treatment_scale is None else 1.0 / np.asarray(cfg.treatment_scale)
    # the later layers' biases tiled to (m, n, w) per batch size n: a
    # contiguous add costs a third of a broadcast one at n = 100. The tiles
    # are made per call, so an update between calls reaches the next one.
    tiles = {}

    def field(a):
        ctrl = np.atleast_2d(a)
        if inv_scale is not None:
            ctrl = ctrl * inv_scale
        c = ctrl @ W0cd + b0d  # (m, 1 or n, w); only f keeps it
        shared = c.shape[1] == 1

        def f(z):
            """dz/dt at the state z (..., n, d_z)."""
            n = z.shape[-2]
            if n not in tiles:
                tiles[n] = [np.repeat(bd, n, axis=1) for _, _, _, bd in later]
            # an (n, d_z) state skips the indexing, about 0.4 us a call at n = 1
            pre = (z if z.ndim == 2 else z[..., None, :, :]) @ W0zd
            pre += c
            for (_, Wd, _, _), tile in zip(later, tiles[n]):
                pre = act(pre, out=pre) @ Wd
                pre += tile
            out = pre.swapaxes(-3, -2).reshape(z.shape)
            out[..., :-d_y] += z[..., d_y:]  # the integrator chain
            return out

        def rebuild(zs):
            """vjp(i, g) of f at a step's four stage inputs zs (4, ..., n, d_z), whose
            one pass rebuilds the control term and every hidden layer by f's calls.
            vjp's products take the units of every decision of the state as rows,
            and so sum each parameter's gradient over the decisions."""
            n, d_z = zs.shape[-2:]
            units = ctrl if shared else np.tile(ctrl, (zs[0].size // n // d_z, 1))
            layers = []  # (mask, activation) per hidden layer, as (4, m, rows, w)
            if later:
                pre = zs.reshape(len(zs), 1, -1, n, d_z) @ W0zd[:, None]
                pre += (ctrl @ W0cd + b0d)[:, None]
                rows = (len(zs), m, -1, pre.shape[-1])
                layers.append((keep(pre).reshape(rows), act(pre, out=pre).reshape(rows)))
                for (_, Wd, _, _), tile in zip(later[:-1], tiles[n]):  # tiles made by f
                    pre = pre @ Wd[:, None]
                    pre += tile[:, None]
                    layers.append((keep(pre).reshape(rows), act(pre, out=pre).reshape(rows)))

            def vjp(i, g):
                gpre = g.reshape(-1, m, d_y).transpose(1, 0, 2)
                for (W, Wd, b, _), (mask, y) in zip(reversed(later), reversed(layers)):
                    gpre = act_vjp(_affine_vjp(gpre, y[i], W, Wd, b), mask[i], y[i])
                gc = _unit_sum(gpre) if shared else gpre
                ad._accum(b0, _unit_sum(gc))
                ad._accum(W0c, units.T @ gc)
                gz = np.add.reduce(_affine_vjp(gpre, zs[i].reshape(-1, d_z), W0z, W0zd), axis=0)
                gz[:, d_y:] += g.reshape(gz.shape)[:, :-d_y]  # the integrator chain
                gz[:, :d_y] += 0.0  # a -0.0 sum becomes +0.0, as in the op graph
                return gz.reshape(g.shape)

            return vjp

        return f, rebuild

    return field, tensors


def triangular_rhs(z, a, params: ObsNodeParams):
    """The field of :func:`stack_field` at the Tensor state z (n, d_z) under
    the constant control a, (n, d_a), (1, d_a) or the (d_a,) row of a
    single-trajectory control path (one that requires grad raises
    ValueError), recorded as one node. A non-finite input or output raises
    NumericError. The solver does not call it."""
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
    f, rebuild = field(a.data)
    out = f(z.data)
    ad._check_finite("triangular_rhs", out)

    return ad._record(Tensor(out), [z, *tensors],
                      lambda g: ad._accum(z, rebuild(z.data[None])(0, g)))


def emit(z, cfg: ObsNodeConfig):
    """Observation map: the first state block of z (n, d_z)."""
    if z.data.shape[1] != cfg.d_z:
        raise ValueError(f"emit: state dim {z.data.shape[1]} != {cfg.d_z}")
    return ad.slice_axis(z, 0, cfg.d_y, axis=1)


def emissions(states, d_y):
    """The observations (first d_y columns, or all if d_y is None, as a
    lockstep stretch takes its states) of the states, each the row i of a
    Tensor q (D, n, d_z) given as (q, i) (:func:`rollouts`), as one
    (len(states), n, d_y) node, whose backward pass writes each state's
    rows into a zero array of q's shape, as slice_axis and concat would."""
    def backward(g):
        for (q, i), gz in zip(reversed(states), g[::-1]):
            full = np.zeros_like(q.data)
            full[i, :, :d_y] = gz
            ad._accum(q, full)

    return ad._record(Tensor(np.stack([q.data[i, :, :d_y] for q, i in states])),
                      [q for q, _ in states], backward)


# Rows of one block of hoisted input products. A block holds
# max(1, GRU_BLOCK_ROWS // n) steps whatever T is, so at n = 1 it still has
# more than one row (a one-row product goes to gemv, whose sums round
# otherwise), and a prefix's states do not depend on the steps after it.
GRU_BLOCK_ROWS = 64


def _gru_states(x, unobs, b_impute, enc, lengths):
    """{k: hidden state (n, H) after k steps} for each k in `lengths` of the
    gated recurrent update with the gates `enc` (:class:`ObsNodeParams`)
    run over the input rows x (T, n, 2 d_y + d_a + 1), whose first d_y
    columns are y imputed with b_impute where `unobs` (T, n, d_y) is 1.

    The input products of the three gates are made in zero-padded blocks of
    steps (:data:`GRU_BLOCK_ROWS`; Appleyard et al., 2016,
    arXiv:1604.01946), the recurrent ones per step, those of the reset and
    update gates in one call. For n >= 2 every product rounds as the
    per-step one of the op graph the cell is built from, so the states
    equal that graph's bit for bit.

    Under a tape the states are written into one (T + 1, n, H) history and
    each step keeps its gates (r, u) and candidate; each distinct k is one
    tape node whose backward pass runs the steps down to the next smaller
    k in reverse, forming r h again from the history. It replays the op
    graph's arithmetic and its order of accumulation, per step, into each
    parameter and each state, so the gradients equal the graph's too;
    b_impute gets the imputed columns' gradient. Untaped, the steps take
    turns in two rows and only the states after each k are copied out. A
    non-finite input or state raises NumericError: checking the last state
    is enough, as a NaN state stays NaN through the convex update and a
    finite one has |h| <= 1."""
    T, n, _ = x.shape
    d_y = unobs.shape[2]
    # the gates stacked as stored, (3, ., H) and (2, H, H): one call makes
    # the products of all gates, each a contiguous (rows, H) array
    Wt, Ut, Uht, bt = enc
    W, U, Uh, b = Wt.data, Ut.data, Uht.data, bt.data
    H = Uh.shape[0]
    ad._check_finite("encode_prefixes", x)
    sig, _, sig_vjp = ad.ACTIVATIONS["sigmoid"]
    tanh, _, tanh_vjp = ad.ACTIVATIONS["tanh"]
    inputs = (b_impute, *enc)
    taped = ad._active_tape() is not None and any(t.requires_grad for t in inputs)
    steps = max(1, GRU_BLOCK_ROWS // max(n, 1))
    rows = x.reshape(T * n, x.shape[2])
    block = np.zeros((steps * n, x.shape[2]))
    xw = np.empty((3, steps * n, H))
    hs = np.zeros((T + 1 if taped else 2, n, H))  # the history, or the last two states
    ks, states = sorted(set(lengths)), {}
    saved = []  # ((r, u), candidate) per step, kept only under a tape
    for k in range(T):
        j = k % steps
        if j == 0:
            part = rows[k * n:(k + steps) * n]
            block[:len(part)] = part
            block[len(part):] = 0.0
            np.matmul(block, W, out=xw)
            xw += b
        h, xk, new = hs[k % len(hs)], xw[:, j * n:(j + 1) * n], hs[(k + 1) % len(hs)]
        r, u = ru = sig(pre := xk[:2] + np.matmul(h, U), out=pre)  # the reset and update gates
        cand = tanh(pre := xk[2] + (r * h) @ Uh, out=pre)
        np.add((1.0 - u) * h, u * cand, out=new)
        if taped:
            saved.append((ru, cand))
        if k + 1 in ks:
            states[k + 1] = Tensor(new if taped else new.copy())
    ad._check_finite("encode_prefixes", hs)
    if not taped:
        return states

    def segment(top, bottom):
        """The backward pass of steps top down to bottom + 1."""
        def backward(g):
            G = np.empty((3, n, H))  # the gates' pre-activation gradients
            g_ru = np.empty((2, n, H))
            for k in range(top, bottom, -1):
                h, (ru, cand), xk = hs[k - 1], saved[k - 1], x[k - 1]
                r, u = ru
                # the gradient of the state before step k: that state's own
                # tensor at the segment's end, else a scratch one
                into = states.get(k - 1) if k - 1 == bottom else Tensor((), requires_grad=True)
                grad_h = k > 1
                # Reverse op order: the convex combination, the candidate,
                # then the update gate, then the reset gate; last the
                # imputation.
                g_u = np.multiply(g, cand, out=g_ru[1])
                g_cand = g * u
                g_keep = g * h
                if grad_h:
                    ad._accum(into, g * (1.0 - u))
                g_u += -g_keep
                G[2] = tanh_vjp(g_cand, None, cand)
                g_rh = _affine_vjp(G[2], r * h, Uht, Uh)
                np.multiply(g_rh, h, out=g_ru[0])
                if grad_h:
                    ad._accum(into, g_rh * r)
                G[:2] = sig_vjp(g_ru, None, ru)
                g_h = _affine_vjp(G[:2], h, Ut, U)
                if grad_h:
                    ad._accum(into, g_h[1])
                    ad._accum(into, g_h[0])
                # the whole input gradient: a product over fewer columns
                # rounds otherwise
                gx = _affine_vjp(G, xk, Wt, W, bt)
                gx = gx[2] + gx[1] + gx[0]
                ad._accum(b_impute, _unit_sum(gx[:, :d_y] * unobs[k - 1]))
                if k - 1 > bottom:
                    g = into.grad

        return backward

    for bottom, top in zip([0] + ks, ks):
        ad._record(states[top], inputs, segment(top, bottom))
    return states


def encode_prefixes(history: History, params: ObsNodeParams, lengths,
                    lead=()) -> list[EncodedState]:
    """The latent point estimates after the first k history times, for each
    k >= 1 in `lengths` (any order, repeats allowed), at times[k - 1]. The
    recurrence (:func:`_gru_states`) runs once, over the longest prefix;
    its hidden state after k steps is, bit for bit, that of a run over the
    first k times, and the affine head maps it to the state (n, d_z), with
    the leading axes `lead` (:func:`_head`). The cell inputs, (imputed y,
    mask, scaled treatment, delta-t) per time, are one array."""
    cfg = params.cfg
    check_dims(history, cfg, "encode")
    if min(lengths, default=1) < 1:
        raise DataError("encode: empty history")
    T = max(lengths, default=0)
    n = history.y.shape[1]
    mask, a = history.mask[:T], history.a[:T]
    unobs = 1.0 - mask
    if cfg.treatment_scale is not None and cfg.d_a:
        a = a / np.asarray(cfg.treatment_scale)
    dt = np.diff(history.times[:T], prepend=history.times[0])
    x = np.concatenate([history.y[:T] * mask + params.b_impute.data * unobs, mask, a,
                        np.broadcast_to(dt[:, None, None], (T, n, 1))], axis=2)
    hs = _gru_states(x, unobs, params.b_impute, params.enc, lengths)
    return [EncodedState(z=_head(hs[k], params.head_W, params.head_b, lead),
                         t=float(history.times[k - 1])) for k in lengths]


def encode(history: History, params: ObsNodeParams) -> EncodedState:
    """:func:`encode_prefixes` of the whole history."""
    return encode_prefixes(history, params, [history.times.size])[0]


def forecast(state: EncodedState, control: ControlPath, query_times, params: ObsNodeParams,
             int_cfg: IntegrationConfig):
    """Predicted outcomes at `query_times` (any order, repeats allowed, none
    before state.t) under the given treatment path: the field is assembled
    once (:func:`stack_field`) and integrated from the encoded state to the
    last query time in one :func:`~obsnode.odeint.integrate` call. Returns
    a list of (n, d_y) Tensors aligned with `query_times`."""
    field, tensors = stack_field(params)
    states = integrate(field, state.z, control, state.t, int_cfg, query_times, tensors)
    return [emit(z, params.cfg) for z in states]


def rollouts(record: History, decisions, params: ObsNodeParams, int_cfg: IntegrationConfig,
             control: ControlPath | None = None):
    """Potential-outcome forecasts from one observed record at several
    decisions: for each index pair (k, j) of `decisions` (see
    :func:`decision_split`), the state encoded from the first k record times
    (one :func:`encode_prefixes` pass serves them all) is integrated by one
    field to the targets times[k:j] under `control` ((K, d_a) or (K, n, d_a)
    knot values), by default the record's own ``ControlPath(times, a)``: the
    treatment recorded at each time holds up to the next. The decisions
    step in lockstep, taped or not: between two consecutive join (times[k - 1])
    or leave (times[j - 1]) times, one :func:`~obsnode.odeint.integrate` call
    steps those in flight as one (D, n, d_z) state, a row per k; each anchor
    of a step edge is a record time or a knot, so each state is bitwise that
    of the decision's own rollout. More than MAX_STEPS in one decision raise
    DataError before any work. Returns, per decision, its j - k states at
    the targets, each the row i of a stepped q as (q, i) (see :func:`emissions`)."""
    n, d_a = record.y.shape[1], params.cfg.d_a
    times = record.times
    if control is None:
        control = ControlPath(times, record.a)
    if control.knot_values.shape[1:] not in ((d_a,), (n, d_a)):
        raise ShapeMismatch("rollouts: the control's knot values", control.knot_values.shape,
                            (control.knot_times.size, n, d_a))
    for k, j in decisions:
        if j > k:  # the steps of the decision's own rollout
            _counted_steps(times[k - 1], control.knot_times, times[k:j], int_cfg.step_size)
    ks = sorted({k for k, _ in decisions})
    heads = {k: s.z for k, s in zip(ks, encode_prefixes(record, params, ks, lead=(1,)))}
    field, tensors = stack_field(params)
    out = [[] for _ in decisions]
    z, at = None, {}  # the last stretch's end state; the row of each decision in flight
    events = sorted({i for k, j in decisions for i in (k - 1, j - 1)})
    for lo, hi in zip(events, events[1:]):
        at = {d: i for d, i in at.items() if decisions[d][1] - 1 > lo}
        rows = sorted(set(at.values()))
        new = [d for d, (k, j) in enumerate(decisions) if k - 1 == lo < j - 1]
        at = {d: rows.index(i) for d, i in at.items()} | dict.fromkeys(new, len(rows))
        if not at:
            continue
        parts = [(z, i) for i in rows] + ([(heads[lo + 1], 0)] if new else [])
        z = emissions(parts, None) if rows else parts[0][0]  # the rows that go on, the join
        qs = integrate(field, z, control, times[lo], int_cfg, times[lo + 1:hi + 1], tensors)
        for d, i in at.items():
            out[d] += [(q, i) for q in qs]
        z = qs[-1]
    return out


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

@dataclass
class NormStats:
    """A split's per-component outcome mean and std (:func:`~obsnode.train.zscore_fit`):
    finite vectors of one length, every std positive, else DataError."""
    mean: np.ndarray  # (d_y,)
    std: np.ndarray   # (d_y,)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise DataError(f"norm stats: mean {self.mean.shape} and std "
                            f"{self.std.shape} must be vectors of one length")
        for j, (m, s) in enumerate(zip(self.mean.tolist(), self.std.tolist())):
            if not (np.isfinite(m) and 0 < s < np.inf):
                raise DataError(f"component {j} has zero spread" if s == 0 else
                                f"component {j} has mean {m!r} and std {s!r}")


def save_model(path, params: ObsNodeParams, norm_stats: NormStats):
    """Write the parameters and a metadata header (config, the normalization
    statistics and `int_step`, the step of params.int_cfg) as JSON,
    format_version 1; tensor values keep 17 significant digits."""
    meta = {"format_version": 1, "config": asdict(params.cfg), "cell": "gru",
            "int_step": float(params.int_cfg.step_size),
            "norm_stats": {"mean": list(map(float, norm_stats.mean)),
                           "std": list(map(float, norm_stats.std))}}
    tensors = ", ".join(
        '{"name": %s, "shape": %s, "values": [%s]}'
        % (json.dumps(name), json.dumps(list(arr.shape)),
           ", ".join(f"{v:.17g}" for v in arr.reshape(-1)))
        for name, arr in params.state().items())
    with open(path, "w") as fh:
        fh.write('{"format_version": 1, "metadata": ' + json.dumps(meta, sort_keys=True)
                 + ', "tensors": [' + tensors + "]}")


def load_model(path):
    """(params, cfg, norm stats) of a checkpoint written by :func:`save_model`,
    params.int_cfg at its `int_step`. A missing or malformed file, a
    non-finite value, a repeated tensor, or metadata that lacks the norm
    stats or a positive finite `int_step`, or does not describe exactly the
    stored tensors raises DataError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise DataError(f"checkpoint {path}: {e}")
    if not isinstance(doc, dict) or doc.get("format_version") != 1:
        raise DataError(f"checkpoint {path}: format_version must be 1")
    arrays = {}
    try:
        for e in doc["tensors"]:
            if e["name"] in arrays:
                raise ValueError(f"tensor {e['name']!r} appears twice")
            arrays[e["name"]] = np.array(e["values"], dtype=np.float64).reshape(e["shape"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"checkpoint {path}: malformed tensors: {e!r}")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise DataError(f"checkpoint {path}: tensor {name!r} has a non-finite value")
    meta = doc.get("metadata")
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise DataError(f"checkpoint {path}: missing the model metadata header")
    try:
        cfg = ObsNodeConfig(**meta["config"])
        stats = NormStats(mean=meta["norm_stats"]["mean"], std=meta["norm_stats"]["std"])
        if stats.mean.size != cfg.d_y:
            raise ValueError(f"norm_stats of length {stats.mean.size} for d_y={cfg.d_y}")
        step = meta.get("int_step")
        if type(step) not in (int, float) or not 0 < step <= float(np.finfo(float).max):
            raise ValueError(f"int_step must be a positive finite number, got {step!r}")
        check_size(cfg)  # before the parameters are allocated
        params = ObsNodeParams(cfg, np.random.default_rng(0))
        params.load_state(arrays)
        params.int_cfg = IntegrationConfig(float(step))
    except (ConfigError, DataError, KeyError, TypeError, ValueError,
            OverflowError) as e:
        raise DataError(f"checkpoint {path}: bad metadata: {e}")
    return params, cfg, stats
