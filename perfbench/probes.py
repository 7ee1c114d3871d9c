"""Kernel probes: single calls into one layer on fixed inputs.

Each probe reports its median wall time over repeated calls, and an
operation count and bytes moved that are *computed* from array shapes, not
measured. The rules, per autodiff op:

- matmul (m x k) @ (k x n): 2mkn flops; 8 bytes per element of both
  operands and the result.
- reshape and slice return numpy views: 0 flops, 0 bytes.
- concat and expand copy: 0 flops; 8 bytes per input and output element.
- tsum and tmean: one flop per input element; 8 bytes per input and output
  element.
- every other op is elementwise: one flop per output element (a tanh or a
  sigmoid counts as one); 8 bytes per input and output element.

The finiteness scan inside each op is not counted. A backward pass is
counted as twice the forward cost of the nodes on its tape. One Adam step is
counted as 17 flops and 64 bytes per parameter element (the array
expressions of the update, with gradient clipping on).
"""

from __future__ import annotations

import time

import numpy as np

from obsnode import autodiff as ad
from obsnode import odeint
from obsnode.autodiff import Adam, Tape, Tensor
from obsnode.model import History, ObsNodeParams, encode, forecast, triangular_rhs
from obsnode.odeint import ControlPath, IntegrationConfig
from obsnode.train import masked_loss

from configs import CANCER_MODEL
from tracer import OPS, replace_everywhere, restore

VIEWS = ("reshape", "slice_axis")
COPIES = ("concat", "expand")
REDUCTIONS = ("tsum", "tmean")
ADAM_FLOPS_PER_ELEM = 17
ADAM_BYTES_PER_ELEM = 64


def op_cost(kind, args, out):
    """(flops, bytes) of one autodiff op from its argument and result shapes."""
    ins = list(args[0]) if kind == "concat" else [x for x in args if isinstance(x, Tensor)]
    n_in = sum(x.data.size for x in ins)
    n_out = out.data.size
    if kind == "matmul":
        (m, k), n = ins[0].data.shape, ins[1].data.shape[1]
        return 2 * m * k * n, 8 * (n_in + n_out)
    if kind in VIEWS:
        return 0, 0
    if kind in COPIES:
        return 0, 8 * (n_in + n_out)
    if kind in REDUCTIONS:
        return n_in, 8 * (n_in + n_out)
    return n_out, 8 * (n_in + n_out)


def count_ops(fn, taped_only=False):
    """Run `fn` once with shape-recording op wrappers; returns (flops, bytes)."""
    totals = [0, 0]
    originals = {getattr(ad, k): k for k in OPS}

    def recorder(orig):
        kind = originals[orig]

        def wrapped(*args, **kwargs):
            out = orig(*args, **kwargs)
            if not taped_only or out.requires_grad:
                f, b = op_cost(kind, args, out)
                totals[0] += f
                totals[1] += b
            return out
        return wrapped

    undo = replace_everywhere(set(originals), recorder)
    try:
        fn()
    finally:
        restore(undo)
    return totals[0], totals[1]


def median_time(fn, min_time=0.25, min_reps=5, max_reps=2000):
    fn()  # warm-up
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < min_time
                                    and len(times) < max_reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times)), len(times)


def _params(seed=0):
    params = ObsNodeParams(CANCER_MODEL, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for t in params.tensors():
        t.data = rng.normal(0.0, 0.3, size=t.data.shape)
    return params


def _history(rng, T, n, cfg):
    times = np.arange(T) * 6.0
    mask = (rng.uniform(size=(T, n, cfg.d_y)) < 0.9).astype(float)
    return History(times, rng.normal(size=(T, n, cfg.d_y)), mask,
                   rng.uniform(0.0, 3.0, size=(T, n, cfg.d_a)))


def run_probes():
    """Per-layer probe metrics: ``{name: (value, unit)}`` plus sample counts."""
    cfg = CANCER_MODEL
    params = _params()
    rng = np.random.default_rng(123)
    out, samples = {}, {}

    def probe(name, fn, unit_scale=1e6, unit="us", flops_bytes=None):
        t, n = median_time(fn)
        f, b = flops_bytes if flops_bytes is not None else count_ops(fn)
        out[f"{name}_{unit}"] = (t * unit_scale, unit)
        out[f"{name}_flops_computed"] = (f, "flop")
        out[f"{name}_bytes_computed"] = (b, "B")
        samples[name] = n

    z25 = Tensor(rng.normal(size=(25, cfg.d_z)))
    a25 = Tensor(rng.uniform(0.0, 3.0, size=(25, cfg.d_a)))
    z100 = Tensor(rng.normal(size=(100, cfg.d_z)))
    a100 = Tensor(rng.uniform(0.0, 3.0, size=(100, cfg.d_a)))
    probe("model.rhs_probe_n25", lambda: triangular_rhs(z25, a25, params))
    probe("model.rhs_probe_n100", lambda: triangular_rhs(z100, a100, params))

    def rhs_grad():
        params_zero_grad(params)
        with Tape() as tape:
            tape.backward(ad.tsum(triangular_rhs(z25, a25, params)))
    fwd_f, fwd_b = count_ops(lambda: triangular_rhs(z25, a25, params))
    probe("model.rhs_grad_probe_n25", rhs_grad,
          flops_bytes=(3 * fwd_f, 3 * fwd_b))

    field = lambda z, a, _p: triangular_rhs(z, a, params)
    probe("odeint.rk4_probe_n25", lambda: odeint._rk4_step(field, z25, a25, None, 3.0))

    hist = _history(rng, 26, 25, cfg)
    probe("model.encode_probe_t26", lambda: encode(hist, params))

    y = rng.normal(size=(30, 25, cfg.d_y))
    mask = (rng.uniform(size=y.shape) < 0.9).astype(float)
    pred = Tensor(rng.normal(size=y.shape))
    probe("train.masked_loss_probe",
          lambda: masked_loss(pred, y, mask, np.ones(cfg.d_y)))

    adam_params = _params(seed=5)
    opt = Adam(adam_params.tensors(), lr=1e-3)
    for t in adam_params.tensors():
        t.grad = rng.normal(size=t.data.shape)
    n_elem = sum(t.data.size for t in adam_params.tensors())
    probe("autodiff.adam_probe", lambda: opt.step(max_grad_norm=1.0),
          flops_bytes=(ADAM_FLOPS_PER_ELEM * n_elem, ADAM_BYTES_PER_ELEM * n_elem))

    # Backward cost per tape node on a recorded encode + rollout + loss.
    ctrl = ControlPath(np.arange(12) * 30.0, rng.uniform(0.0, 3.0, size=(12, 25, cfg.d_a)))
    qts = [150.0 + 6.0 * k for k in range(1, 11)]
    y_fut = rng.normal(size=(len(qts), 25, cfg.d_y))
    int_cfg = IntegrationConfig(step_size=3.0)

    def build():
        params_zero_grad(params)
        tape = Tape()
        with tape:
            state = encode(hist, params)
            preds = forecast(state, ctrl, qts, params, int_cfg)
            stacked = ad.concat([ad.reshape(p, (1,) + p.data.shape) for p in preds], axis=0)
            loss = masked_loss(stacked, y_fut, np.ones_like(y_fut), np.ones(cfg.d_y))
        return tape, loss

    f_taped, b_taped = count_ops(build, taped_only=True)
    times = []
    for _ in range(7):
        tape, loss = build()
        t = time.perf_counter()
        tape.backward(loss)
        times.append(time.perf_counter() - t)
    nodes = len(tape)
    t_bw = float(np.median(times))
    out["autodiff.backward_probe_nodes"] = (nodes, "count")
    out["autodiff.backward_probe_ns_per_node"] = (t_bw / nodes * 1e9, "ns")
    out["autodiff.backward_probe_flops_computed"] = (2 * f_taped, "flop")
    out["autodiff.backward_probe_bytes_computed"] = (2 * b_taped, "B")
    samples["autodiff.backward_probe"] = len(times)
    return out, samples


def params_zero_grad(params):
    for t in params.tensors():
        t.zero_grad()
