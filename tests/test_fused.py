"""The fused tape nodes of the model (the triangular vector field and the GRU
cell) against the same computations written as graphs of autodiff ops.

The fused nodes promise bitwise equality with these graphs: the same forward
values and the same gradients, accumulated in the same order, for every
input that requires grad.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode.autodiff import Tape, Tensor, grad_check
from obsnode.errors import NumericError
from obsnode.model import ObsNodeConfig, ObsNodeParams, _gru_step, triangular_rhs


def ref_linear(x, W, b):
    n = x.data.shape[0]
    return ad.add(ad.matmul(x, W), ad.expand(b, (n, b.data.shape[1])))


REF_ACTIVATIONS = {"tanh": ad.tanh, "sigmoid": ad.sigmoid,
                   "leakyrelu": ad.leaky_relu}


def ref_rhs(z, a, params):
    """The triangular vector field as a graph of autodiff ops."""
    cfg = params.cfg
    if a.data.ndim == 1:
        a = ad.reshape(a, (1, cfg.d_a))
    if a.data.shape[0] == 1 and z.data.shape[0] > 1:
        a = ad.expand(a, (z.data.shape[0], cfg.d_a))
    if cfg.treatment_scale is not None and cfg.d_a:
        inv = 1.0 / np.asarray(cfg.treatment_scale)
        a = ad.hadamard(a, Tensor(np.broadcast_to(inv, a.data.shape).copy()))
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


def run_node(node, inputs, params, seed):
    """Forward value and every gradient of sum(w * node(*inputs, params)),
    with every gradient buffer pre-filled, some entries with -0.0, so the
    order of accumulation and every added zero show in the bits."""
    rng = np.random.default_rng(seed)
    for t in list(inputs) + params:
        t.grad = None
        if t.requires_grad:
            t.grad = rng.normal(size=t.data.shape)
            t.grad[rng.uniform(size=t.data.shape) < 0.2] = -0.0
    with Tape() as tape:
        out = node(*inputs)
        w = Tensor(rng.normal(size=out.data.shape))
        tape.backward(ad.tsum(ad.hadamard(out, w)))
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


class TestBitwiseAgainstOpGraph:
    @settings(max_examples=80, deadline=None)
    @given(d_y=st.integers(1, 3), m=st.integers(1, 3),
           d_a=st.sampled_from([0, 1, 2]),
           act=st.sampled_from(["tanh", "sigmoid", "leakyrelu"]),
           layers=st.integers(0, 2), n=st.sampled_from([1, 4]),
           control=st.sampled_from(["batch", "one_row", "path_row"]),
           scaled=st.booleans(), z_grad=st.booleans(), a_grad=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_triangular_rhs(self, d_y, m, d_a, act, layers, n, control,
                            scaled, z_grad, a_grad, seed):
        # the control is (n, d_a), (1, d_a), or the (d_a,) row that a
        # single-trajectory ControlPath gives
        scale = tuple(0.5 + np.arange(d_a)) if scaled and d_a else None
        cfg = ObsNodeConfig(d_y=d_y, m=m, d_a=d_a, phi_hidden_dim=5,
                            phi_layers=layers, phi_activation=act,
                            encoder_hidden_dim=3, treatment_scale=scale)
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=(n, cfg.d_z))
        a0 = rng.normal(size={"batch": (n, d_a), "one_row": (1, d_a),
                              "path_row": (d_a,)}[control])
        results = []
        for node in (triangular_rhs, ref_rhs):
            params = make_params(cfg, seed)
            z = Tensor(z0.copy(), requires_grad=z_grad)
            a = Tensor(a0.copy(), requires_grad=a_grad)
            results.append(run_node(lambda z, a: node(z, a, params), (z, a),
                                    phi_tensors(params), seed + 2))
        assert_bitwise(*results)

    @settings(max_examples=60, deadline=None)
    @given(x_dim=st.integers(1, 4), hidden=st.integers(1, 5),
           n=st.sampled_from([1, 3]), x_grad=st.booleans(),
           h_grad=st.booleans(), seed=st.integers(0, 2**16))
    def test_gru_step(self, x_dim, hidden, n, x_grad, h_grad, seed):
        rng = np.random.default_rng(seed)
        shapes = {"W": (x_dim, hidden), "U": (hidden, hidden), "b": (1, hidden)}
        enc0 = {k + g: rng.normal(size=shapes[k]) for k in "WUb" for g in "ruh"}
        x0 = rng.normal(size=(n, x_dim))
        h0 = rng.normal(size=(n, hidden))
        results = []
        for node in (_gru_step, ref_gru):
            enc = {k: Tensor(v.copy(), requires_grad=True) for k, v in enc0.items()}
            x = Tensor(x0.copy(), requires_grad=x_grad)
            h = Tensor(h0.copy(), requires_grad=h_grad)
            results.append(run_node(lambda x, h: node(x, h, enc), (x, h),
                                    [enc[k] for k in sorted(enc)], seed + 2))
        assert_bitwise(*results)


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
        self.x = Tensor(rng.normal(size=(3, cfg.encoder_input_dim)))
        self.h = Tensor(rng.normal(size=(3, 5)))
        self.wh = Tensor(rng.normal(size=(3, 5)))

    def rhs_loss(self, z=None, a=None):
        out = triangular_rhs(self.z if z is None else z,
                             self.a if a is None else a, self.params)
        return ad.tsum(ad.hadamard(out, self.w))

    def gru_loss(self, x=None, h=None):
        out = _gru_step(self.x if x is None else x, self.h if h is None else h,
                        self.params.enc)
        return ad.tsum(ad.hadamard(out, self.wh))

    def test_triangular_rhs(self):
        assert grad_check(lambda t: self.rhs_loss(z=t), self.z) < 1e-7
        assert grad_check(lambda t: self.rhs_loss(a=t), self.a) < 1e-7
        for W in (self.params.phi[0][0][0], self.params.phi[1][1][1]):
            assert grad_check(lambda t: self.rhs_loss(), W) < 1e-7

    def test_gru_step(self):
        assert grad_check(lambda t: self.gru_loss(x=t), self.x) < 1e-7
        assert grad_check(lambda t: self.gru_loss(h=t), self.h) < 1e-7
        for key in ("Wr", "Uu", "bh"):
            assert grad_check(lambda t: self.gru_loss(), self.params.enc[key]) < 1e-7


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
        x = Tensor(np.zeros((2, self.cfg.encoder_input_dim)))
        with pytest.raises(NumericError, match="_gru_step"):
            _gru_step(x, Tensor(h), self.params.enc)
