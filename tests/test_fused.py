"""The fused tape nodes of the model (the stacked triangular vector field, the
solver step and the GRU cell) and the encoder against the same computations
written as graphs of autodiff ops.

The field and the GRU cell promise bitwise equality with these graphs: the
same forward values and the same gradients, accumulated in the same order,
for every input that requires grad. The data they take (the control, the
GRU input row and its mask) are plain constants. The stacked field differs
from the per-block field, and the step node from the op graph of its stages,
in the rounding of their sums only: they agree to 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode import odeint
from obsnode.autodiff import Tape, Tensor, grad_check
from obsnode.errors import NumericError
from obsnode.model import (History, ObsNodeConfig, ObsNodeParams, _gru_step, encode,
                           stack_field, triangular_rhs)
from obsnode.odeint import ControlPath, IntegrationConfig, integrate


def ref_linear(x, W, b):
    n = x.data.shape[0]
    return ad.add(ad.matmul(x, W), ad.expand(b, (n, b.data.shape[1])))


REF_ACTIVATIONS = {"tanh": ad.tanh, "sigmoid": ad.sigmoid,
                   "leakyrelu": ad.leaky_relu}


def ref_control(z, a, cfg, expand=True):
    """The control as a (n, d_a), or with expand=False (1, d_a), graph node,
    scaled by the treatment scale."""
    if a.data.ndim == 1:
        a = ad.reshape(a, (1, cfg.d_a))
    if expand and a.data.shape[0] == 1 and z.data.shape[0] > 1:
        a = ad.expand(a, (z.data.shape[0], cfg.d_a))
    if cfg.treatment_scale is not None and cfg.d_a:
        inv = 1.0 / np.asarray(cfg.treatment_scale)
        a = ad.hadamard(a, Tensor(np.broadcast_to(inv, a.data.shape).copy()))
    return a


def ref_rhs(z, a, params):
    """The triangular vector field block by block, as a graph of autodiff
    ops: the arithmetic of the per-block field that the stacked one
    replaced, which this graph matched bit for bit."""
    cfg = params.cfg
    a = ref_control(z, a, cfg)
    act = REF_ACTIVATIONS[cfg.phi_activation]
    d_y, m = cfg.d_y, cfg.m
    blocks = []
    for i, layers in enumerate(params.phi, start=1):
        x = ad.slice_axis(z, 0, i * d_y, axis=1)
        if cfg.d_a:
            x = ad.concat([x, a], axis=1)
        for W, b in layers[:-1]:
            x = act(ref_linear(x, W, b))
        phi = ref_linear(x, *layers[-1])
        if i < m:
            phi = ad.add(ad.slice_axis(z, i * d_y, (i + 1) * d_y, axis=1), phi)
        blocks.append(phi)
    return ad.concat(blocks, axis=1)


def ref_stacked(params):
    """The stacked weights of :func:`stack_field` built from the per-block
    tensors by slices, zero blocks and concatenations: ((z rows, control
    rows or None, bias) of the first layer, [(weight, bias)] of the later
    layers)."""
    cfg = params.cfg
    d_y, m, d_a, d_z = cfg.d_y, cfg.m, cfg.d_a, cfg.d_z
    widths = [cfg.phi_hidden_dim] * cfg.phi_layers + [d_y]
    zeros = lambda rows, cols: Tensor(np.zeros((rows, cols)))
    later = []
    for l, w in enumerate(widths):
        Ws = [params.phi[i][l][0] for i in range(m)]
        b = ad.concat([params.phi[i][l][1] for i in range(m)], axis=1)
        if l == 0:
            Wz = ad.concat([ad.concat([ad.slice_axis(W, 0, k * d_y, axis=0),
                                       zeros(d_z - k * d_y, w)], axis=0)
                            for k, W in enumerate(Ws, start=1)], axis=1)
            Wc = ad.concat([ad.slice_axis(W, k * d_y, k * d_y + d_a, axis=0)
                            for k, W in enumerate(Ws, start=1)], axis=1) if d_a else None
            first = (Wz, Wc, b)
        else:
            v = widths[l - 1]
            later.append((ad.concat([ad.concat([zeros(i * v, w), W, zeros((m - 1 - i) * v, w)],
                                               axis=0) for i, W in enumerate(Ws)], axis=1), b))
    return first, later


def ref_stacked_rhs(z, a, params):
    """The field of :func:`stack_field` as a graph of autodiff ops over the
    weights of :func:`ref_stacked`, with the stacked field's arithmetic: the
    control's first-layer term on its own rows, broadcast after."""
    cfg = params.cfg
    n, d_y = z.data.shape[0], cfg.d_y
    (Wz, Wc, b0), later = ref_stacked(params)
    a = ref_control(z, a, cfg, expand=False)
    c = b0
    if cfg.d_a:
        c = ad.matmul(a, Wc)
        c = ad.add(c, b0 if c.data.shape[0] == 1 else ad.expand(b0, c.data.shape))
    # z enters once, so its two uses sum before they reach its gradient
    z_in = ad.reshape(z, z.data.shape)
    if c.data.shape[0] != n:
        c = ad.expand(c, (n, c.data.shape[1]))
    x = ad.add(ad.matmul(z_in, Wz), c)
    act = REF_ACTIVATIONS[cfg.phi_activation]
    for W, b in later:
        x = ref_linear(act(x), W, b)
    # -0.0 is the identity of addition: the last block passes unchanged
    shift = ad.concat([ad.slice_axis(z_in, d_y, cfg.d_z, axis=1),
                       Tensor(np.full((n, d_y), -0.0))], axis=1)
    return ad.add(x, shift)


def ref_gru(x, h, enc):
    """The gated recurrent update as a graph of autodiff ops."""
    r = ad.sigmoid(ad.add(ref_linear(x, enc["Wr"], enc["br"]),
                          ad.matmul(h, enc["Ur"])))
    u = ad.sigmoid(ad.add(ref_linear(x, enc["Wu"], enc["bu"]),
                          ad.matmul(h, enc["Uu"])))
    cand = ad.tanh(ad.add(ref_linear(x, enc["Wh"], enc["bh"]),
                          ad.matmul(ad.hadamard(r, h), enc["Uh"])))
    ones = Tensor(np.ones_like(u.data))
    return ad.add(ad.hadamard(ad.sub(ones, u), h), ad.hadamard(u, cand))


def ref_impute(y, mask, b):
    """y (n, d_y) with its unobserved entries replaced by b (1, d_y)."""
    n = y.data.shape[0]
    ones = Tensor(np.ones_like(mask.data))
    b_full = ad.expand(b, (n, b.data.shape[1]))
    return ad.add(ad.hadamard(y, mask), ad.hadamard(b_full, ad.sub(ones, mask)))


def ref_encode(history, params):
    """The encoder as a per-step graph of autodiff ops: impute, assemble the
    input row, update the hidden state, then the affine head."""
    cfg = params.cfg
    n = history.y.shape[1]
    h = Tensor(np.zeros((n, cfg.encoder_hidden_dim)))
    prev_t = history.times[0]
    for k in range(history.times.size):
        a = history.a[k]
        if cfg.treatment_scale is not None and cfg.d_a:
            a = a / np.asarray(cfg.treatment_scale)
        dt = Tensor(np.full((n, 1), history.times[k] - prev_t))
        prev_t = history.times[k]
        mask = Tensor(history.mask[k])
        x = ad.concat([ref_impute(Tensor(history.y[k]), mask, params.b_impute),
                       mask, Tensor(a), dt], axis=1)
        h = ref_gru(x, h, params.enc)
    return ref_linear(h, params.head_W, params.head_b)


def run_node(node, inputs, params, seed, zeros=0.2):
    """Forward value and every gradient of sum(w * node(*inputs, params)),
    with every gradient buffer pre-filled; a share `zeros` of the buffer
    entries and of w is -0.0, so the order of accumulation and every added
    zero, with its sign, show in the bits."""
    rng = np.random.default_rng(seed)
    for t in list(inputs) + params:
        t.grad = None
        if t.requires_grad:
            t.grad = rng.normal(size=t.data.shape)
            t.grad[rng.uniform(size=t.data.shape) < zeros] = -0.0
    with Tape() as tape:
        out = node(*inputs)
        w = rng.normal(size=out.data.shape)
        w[rng.uniform(size=w.shape) < zeros] = -0.0
        tape.backward(ad.tsum(ad.hadamard(out, Tensor(w))))
    return [out.data] + [t.grad for t in list(inputs) + params]


def assert_bitwise(fused, ref):
    assert len(fused) == len(ref)
    for f, r in zip(fused, ref):
        assert (f is None) == (r is None)
        if f is not None:
            assert f.shape == r.shape
            assert f.tobytes() == r.tobytes()


def make_params(cfg, seed):
    params = ObsNodeParams(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for t in params.tensors():
        t.data = rng.normal(0.0, 0.7, size=t.data.shape)
    return params


def phi_tensors(params):
    return [t for layers in params.phi for W, b in layers for t in (W, b)]


def phi_config(d_y, m, d_a, act, layers, scaled):
    scale = tuple(0.5 + np.arange(d_a)) if scaled and d_a else None
    return ObsNodeConfig(d_y=d_y, m=m, d_a=d_a, phi_hidden_dim=5, phi_layers=layers,
                         phi_activation=act, encoder_hidden_dim=3, treatment_scale=scale)


def rhs_pair(d_y, m, d_a, act, layers, n, control, scaled, z_grad, seed, zeros=0.2):
    """run_node results of the fused field and of the stacked op graph; the
    control is (n, d_a), (1, d_a), or the (d_a,) row that a
    single-trajectory ControlPath gives."""
    cfg = phi_config(d_y, m, d_a, act, layers, scaled)
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=(n, cfg.d_z))
    a0 = rng.normal(size={"batch": (n, d_a), "one_row": (1, d_a),
                          "path_row": (d_a,)}[control])
    results = []
    for node in (triangular_rhs, ref_stacked_rhs):
        params = make_params(cfg, seed)
        z = Tensor(z0.copy(), requires_grad=z_grad)
        a = Tensor(a0.copy())
        results.append(run_node(lambda z: node(z, a, params), (z,),
                                phi_tensors(params), seed + 2, zeros=zeros))
    return results


def gru_step_pair(d_y, rest, hidden, n, observed, h_grad, b_grad, seed, zeros=0.2):
    """run_node results of the fused cell and of the reference that imputes
    with autodiff ops and feeds the op-graph cell, on the input row
    (imputed y, mask, rest) with no, all or some entries observed."""
    rng = np.random.default_rng(seed)
    x_dim = 2 * d_y + rest
    shapes = {"W": (x_dim, hidden), "U": (hidden, hidden), "b": (1, hidden)}
    enc0 = {k + g: rng.normal(size=shapes[k]) for k in "WUb" for g in "ruh"}
    y0 = rng.normal(size=(n, d_y))
    mask = {"none": np.zeros((n, d_y)), "all": np.ones((n, d_y)),
            "some": (rng.uniform(size=(n, d_y)) < 0.5).astype(float)}[observed]
    tail = rng.normal(size=(n, rest))
    h0 = rng.normal(size=(n, hidden))
    b0 = rng.normal(size=(1, d_y))
    results = []
    for fused in (True, False):
        enc = {k: Tensor(v.copy(), requires_grad=True) for k, v in enc0.items()}
        b = Tensor(b0.copy(), requires_grad=b_grad)
        h = Tensor(h0.copy(), requires_grad=h_grad)
        if fused:
            x = np.concatenate([y0 * mask + b0 * (1.0 - mask), mask, tail], axis=1)
            node = lambda h, b: _gru_step(x, 1.0 - mask, h, b, enc)
        else:
            node = lambda h, b: ref_gru(
                ad.concat([ref_impute(Tensor(y0), Tensor(mask), b), Tensor(mask),
                           Tensor(tail)], axis=1), h, enc)
        results.append(run_node(node, (h, b), [enc[k] for k in sorted(enc)], seed + 2,
                                zeros=zeros))
    return results


class TestBitwiseAgainstOpGraph:
    @settings(max_examples=80, deadline=None)
    @given(d_y=st.integers(1, 3), m=st.integers(1, 3),
           d_a=st.sampled_from([0, 1, 2]),
           act=st.sampled_from(["tanh", "sigmoid", "leakyrelu"]),
           layers=st.integers(0, 2), n=st.sampled_from([1, 4]),
           control=st.sampled_from(["batch", "one_row", "path_row"]),
           scaled=st.booleans(), z_grad=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_triangular_rhs(self, d_y, m, d_a, act, layers, n, control,
                            scaled, z_grad, seed):
        assert_bitwise(*rhs_pair(d_y, m, d_a, act, layers, n, control, scaled,
                                 z_grad, seed))

    @settings(max_examples=80, deadline=None)
    @given(d_y=st.integers(1, 3), rest=st.integers(1, 3), hidden=st.integers(1, 5),
           n=st.sampled_from([1, 3]), observed=st.sampled_from(["none", "all", "some"]),
           h_grad=st.booleans(), b_grad=st.booleans(), seed=st.integers(0, 2**16))
    def test_gru_step(self, d_y, rest, hidden, n, observed, h_grad, b_grad, seed):
        assert_bitwise(*gru_step_pair(d_y, rest, hidden, n, observed, h_grad,
                                      b_grad, seed))

    @pytest.mark.parametrize("n,d_y", [(1, 1), (1, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros(self, n, d_y, seed):
        # with every buffer entry -0.0, each zero a node adds keeps the sign
        # that the op graph's reductions give it; a fully observed row sends
        # only zeros to b_impute
        assert_bitwise(*rhs_pair(d_y, 2, 1, "tanh", 1, n, "batch", False, True, seed,
                                 zeros=1.0))
        assert_bitwise(*gru_step_pair(d_y, 1, 1, n, "all", False, True, seed, zeros=1.0))

    @settings(max_examples=30, deadline=None)
    @given(d_y=st.integers(1, 2), d_a=st.sampled_from([0, 1, 2]), T=st.integers(1, 5),
           n=st.sampled_from([1, 3]), scaled=st.booleans(), seed=st.integers(0, 2**16))
    def test_encode(self, d_y, d_a, T, n, scaled, seed):
        # z and every parameter gradient, on an uneven time grid with a
        # partly missing history
        scale = tuple(0.5 + np.arange(d_a)) if scaled and d_a else None
        cfg = ObsNodeConfig(d_y=d_y, m=2, d_a=d_a, phi_hidden_dim=3,
                            encoder_hidden_dim=4, treatment_scale=scale)
        rng = np.random.default_rng(seed)
        mask = (rng.uniform(size=(T, n, d_y)) < 0.6).astype(float)
        hist = History(np.cumsum(rng.uniform(0.1, 2.0, size=T)),
                       rng.normal(size=(T, n, d_y)) * mask, mask,
                       rng.uniform(0.0, 3.0, size=(T, n, d_a)))
        results = []
        for node in (lambda p: encode(hist, p).z, lambda p: ref_encode(hist, p)):
            params = make_params(cfg, seed)
            results.append(run_node(lambda: node(params), (), params.tensors(), seed + 2))
        assert_bitwise(*results)


def assert_close(fused, ref, rtol=1e-12):
    """Each array of `fused` within rtol of its `ref` array, relative to the
    largest magnitude in that array."""
    assert len(fused) == len(ref)
    for f, r in zip(fused, ref):
        assert (f is None) == (r is None)
        if f is not None and r.size:
            assert np.max(np.abs(f - r)) <= rtol * np.max(np.abs(r)), \
                f"relative error {np.max(np.abs(f - r)) / np.max(np.abs(r)):.3e}"


def ref_integrate(z0, control, t1, cfg, query_times, params):
    """:func:`~obsnode.odeint.integrate` of the per-block field from t = 0 on
    the solver's step edges, each Euler or RK4 step written as ad.add and
    ad.scale over the stages."""
    out, z = {}, z0
    edges = odeint._step_boundaries(0.0, t1, control, query_times, cfg)
    for lo, hi in zip(edges[:-1], edges[1:]):
        a, h = Tensor(control.value_at(lo)), hi - lo
        f = lambda s: ref_rhs(s, a, params)
        k1 = f(z)
        if cfg.method == "rk4":
            k2 = f(ad.add(z, ad.scale(k1, h / 2.0)))
            k3 = f(ad.add(z, ad.scale(k2, h / 2.0)))
            k4 = f(ad.add(z, ad.scale(k3, h)))
            incr = ad.add(ad.add(k1, ad.scale(ad.add(k2, k3), 2.0)), k4)
            z = ad.add(z, ad.scale(incr, h / 6.0))
        else:
            z = ad.add(z, ad.scale(k1, h))
        out[hi] = z
    return [out[t] for t in query_times]


def value_and_grads(node, z0, params, seed):
    """The value of node(z) and the gradients of z and of each per-block
    tensor for the loss sum(w * value), from empty gradient buffers."""
    z = Tensor(z0.copy(), requires_grad=True)
    w = np.random.default_rng(seed).normal(size=node(z).data.shape)
    for t in phi_tensors(params):
        t.zero_grad()
    with Tape() as tape:
        out = node(z)
        tape.backward(ad.tsum(ad.hadamard(out, Tensor(w))))
    return [out.data, z.grad] + [t.grad for t in phi_tensors(params)]


class TestStackedAgainstPerBlock:
    @settings(max_examples=80, deadline=None)
    @given(d_y=st.integers(1, 3), m=st.integers(1, 3), d_a=st.sampled_from([0, 1, 2]),
           act=st.sampled_from(sorted(ad.ACTIVATIONS)), layers=st.integers(0, 2),
           scaled=st.booleans(), n=st.sampled_from([1, 5]),
           control=st.sampled_from(["batch", "path_row"]), seed=st.integers(0, 2**16))
    def test_field(self, d_y, m, d_a, act, layers, scaled, n, control, seed):
        # values, per-block parameter gradients and the state gradient
        cfg = phi_config(d_y, m, d_a, act, layers, scaled)
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=(n, cfg.d_z))
        a = Tensor(rng.normal(size=(n, d_a) if control == "batch" else (d_a,)))
        results = [value_and_grads(lambda z: node(z, a, params), z0, params, seed + 2)
                   for node, params in ((triangular_rhs, make_params(cfg, seed)),
                                        (ref_rhs, make_params(cfg, seed)))]
        assert_close(*results)


class TestStepNode:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("act", sorted(ad.ACTIVATIONS))
    def test_against_the_op_graph_of_its_stages(self, method, act):
        # eight chained steps across a control knot, queried mid-solve and
        # at the end: the states, the gradients of z0 and of every per-block
        # tensor, and the tape's length
        cfg = phi_config(2, 2, 2, act, 2, True)
        rng = np.random.default_rng(11)
        z0 = rng.normal(size=(3, cfg.d_z))
        control = ControlPath(np.array([0.0, 0.6]), rng.normal(size=(2, 3, 2)))
        int_cfg = IntegrationConfig(method=method, step_size=0.25)
        qts = [0.7, 1.5]
        w = [rng.normal(size=z0.shape) for _ in qts]
        results, sizes = [], []
        for run in ("fused", "ops"):
            params = make_params(cfg, 12)
            z = Tensor(z0.copy(), requires_grad=True)
            with Tape() as tape:
                if run == "fused":
                    field, tensors = stack_field(params)
                    states = integrate(field, z, control, 0.0, 1.5, int_cfg, qts, tensors)
                else:
                    states = ref_integrate(z, control, 1.5, int_cfg, qts, params)
                loss = ad.tsum(ad.concat([ad.hadamard(s, Tensor(wk))
                                          for s, wk in zip(states, w)], axis=1))
                tape.backward(loss)
            sizes.append(len(tape))
            results.append([s.data for s in states] + [z.grad]
                           + [t.grad for t in phi_tensors(params)])
        assert_close(*results)
        # the assembly node, one node per step (3 to the knot at 0.6, 1 to
        # the query at 0.7, 4 to 1.5) and the loss's 4
        assert sizes[0] == 1 + 8 + 4


class TestFusedGradCheck:
    def setup_method(self):
        cfg = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=6, phi_layers=2,
                            phi_activation="tanh", encoder_hidden_dim=5,
                            treatment_scale=(2.0, 0.5))
        self.params = make_params(cfg, 3)
        rng = np.random.default_rng(4)
        self.z = Tensor(rng.normal(size=(3, cfg.d_z)))
        self.a = Tensor(rng.normal(size=(1, cfg.d_a)))
        self.w = Tensor(rng.normal(size=(3, cfg.d_z)))
        self.y = rng.normal(size=(3, cfg.d_y))
        self.mask = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        self.tail = rng.normal(size=(3, cfg.encoder_input_dim - 2 * cfg.d_y))
        self.h = Tensor(rng.normal(size=(3, 5)))
        self.wh = Tensor(rng.normal(size=(3, 5)))

    def rhs_loss(self):
        out = triangular_rhs(self.z, self.a, self.params)
        return ad.tsum(ad.hadamard(out, self.w))

    def gru_loss(self):
        b = self.params.b_impute
        x = np.concatenate([self.y * self.mask + b.data * (1.0 - self.mask),
                            self.mask, self.tail], axis=1)
        out = _gru_step(x, 1.0 - self.mask, self.h, b, self.params.enc)
        return ad.tsum(ad.hadamard(out, self.wh))

    def test_triangular_rhs(self):
        assert grad_check(self.rhs_loss, self.z) < 1e-7
        for W in (self.params.phi[0][0][0], self.params.phi[1][1][1]):
            assert grad_check(self.rhs_loss, W) < 1e-7

    def test_triangular_rhs_control_is_constant(self):
        # the node has no gradient for its control, so asking for one fails
        a = Tensor(self.a.data, requires_grad=True)
        with pytest.raises(ValueError, match="control"):
            triangular_rhs(self.z, a, self.params)

    def test_gru_step(self):
        assert grad_check(self.gru_loss, self.h) < 1e-7
        assert grad_check(self.gru_loss, self.params.b_impute) < 1e-7
        for key in ("Wr", "Uu", "bh"):
            assert grad_check(self.gru_loss, self.params.enc[key]) < 1e-7


class TestFusedNonFinite:
    def setup_method(self):
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=4,
                            encoder_hidden_dim=3)
        self.cfg, self.params = cfg, make_params(cfg, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_triangular_rhs_input(self, bad):
        z = np.zeros((2, self.cfg.d_z))
        z[1, 0] = bad
        with pytest.raises(NumericError, match="triangular_rhs"):
            triangular_rhs(Tensor(z), Tensor(np.zeros((2, 1))), self.params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gru_step_input(self, bad):
        h = np.zeros((2, 3))
        h[0, 2] = bad
        x = np.zeros((2, self.cfg.encoder_input_dim))
        with pytest.raises(NumericError, match="_gru_step"):
            _gru_step(x, np.zeros((2, 1)), Tensor(h), self.params.b_impute,
                      self.params.enc)
