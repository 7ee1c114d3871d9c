"""The fused tape nodes of the model (the triangular vector field, the solver
step, the recurrent encoder, its affine head, the emission and the masked
loss) against the same computations written as graphs of autodiff ops.

The field and, for two or more units, the encoder promise bitwise equality
with these graphs: the same forward values and the same gradients,
accumulated in the same order, for every input that requires grad. The
field's graph takes one batched product over the blocks per layer on the
stored tensors, as the field does; the encoder's graph is the per-step
cell on views of the stored gates. The solver's step nodes on the field
promise the same against the op graph of their stages on the field's
graph. The data they take (the control, the history) are plain
constants. The field differs from the per-block op graph of the normal
form, and the encoder of a single unit from the per-step cell (its input
products are rows of a larger product), in the rounding of their sums
only: they agree to 1e-12 relative.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode import odeint
from obsnode.autodiff import Tape, Tensor, grad_check
from obsnode.errors import NumericError
from obsnode import model
from obsnode.model import (EncodedState, History, ObsNodeConfig, decision_split,
                           encode_prefixes, forecast, stack_field, triangular_rhs)
from obsnode.odeint import ControlPath, IntegrationConfig, integrate
from obsnode.simulate import Trajectory
from obsnode.train import TrainConfig, _batch_loss, evaluate_loss, stack_units
from obsnode import train as train_mod
from support import (GateViews, PerBlockParams, checkpoint_grads, op_graph_affine,
                     mask_window, op_graph_emissions, op_graph_loss, random_params,
                     stored_names, value_at)


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
    ops on :class:`PerBlockParams`: each block's MLP on its own slice of z
    and the control."""
    cfg = params.cfg
    a = ref_control(z, a, cfg)
    d_y, m = cfg.d_y, cfg.m
    blocks = []
    for i, layers in enumerate(params.phi, start=1):
        x = ad.slice_axis(z, 0, i * d_y, axis=1)
        if cfg.d_a:
            x = ad.concat([x, a], axis=1)
        for W, b in layers[:-1]:
            x = ad.leaky_relu(op_graph_affine(x, W, b))
        phi = op_graph_affine(x, *layers[-1])
        if i < m:
            phi = ad.add(ad.slice_axis(z, i * d_y, (i + 1) * d_y, axis=1), phi)
        blocks.append(phi)
    return ad.concat(blocks, axis=1)


def ref_bmm(x, W):
    """The batched product x (m, n, v) @ W (m, v, w), block by block."""
    def bw(g):
        ad._accum(x, g @ W.data.mT)
        ad._accum(W, x.data.mT @ g)

    return ad._record(Tensor(x.data @ W.data), (x, W), bw)


def ref_swap(x):
    """The blocks' outputs (m, n, d_y) as (n, m, d_y)."""
    return ad._record(Tensor(x.data.transpose(1, 0, 2)), (x,),
                      lambda g: ad._accum(x, g.transpose(1, 0, 2)))


def ref_shared(x, m):
    """The rows x (r, k), shared by the m blocks, as (m, r, k)."""
    return ad.concat([ad.reshape(x, (1,) + x.data.shape)] * m, axis=0)


def ref_batched_rhs(z, a, params):
    """The field of :func:`stack_field` as a graph of autodiff ops with its
    arithmetic on the stored tensors: one batched product over the blocks
    per layer, the first with the control's term on its own rows,
    broadcast after."""
    cfg = params.cfg
    n, d_y, m = z.data.shape[0], cfg.d_y, cfg.m
    Wz, Wc, b0, *later = params.phi
    c = ref_bmm(ref_shared(ref_control(z, a, cfg, expand=False), m), Wc)
    c = ad.add(c, b0 if c.data.shape[1] == 1 else ad.expand(b0, c.data.shape))
    # z enters once, so its two uses sum before they reach its gradient
    z_in = ad.reshape(z, z.data.shape)
    if c.data.shape[1] != n:
        c = ad.expand(c, (m, n, c.data.shape[2]))
    x = ad.add(ref_bmm(ref_shared(z_in, m), Wz), c)
    for W, b in zip(later[::2], later[1::2]):
        x = ad.add(ref_bmm(ad.leaky_relu(x), W), ad.expand(b, (m, n, b.data.shape[2])))
    x = ad.reshape(ref_swap(x), (n, cfg.d_z))
    # -0.0 is the identity of addition: the last block passes unchanged
    shift = ad.concat([ad.slice_axis(z_in, d_y, cfg.d_z, axis=1),
                       Tensor(np.full((n, d_y), -0.0))], axis=1)
    return ad.add(x, shift)


def ref_gru(x, h, enc):
    """The gated recurrent update as a graph of autodiff ops."""
    r = ad.sigmoid(ad.add(op_graph_affine(x, enc["Wr"], enc["br"]),
                          ad.matmul(h, enc["Ur"])))
    u = ad.sigmoid(ad.add(op_graph_affine(x, enc["Wu"], enc["bu"]),
                          ad.matmul(h, enc["Uu"])))
    cand = ad.tanh(ad.add(op_graph_affine(x, enc["Wh"], enc["bh"]),
                          ad.matmul(ad.hadamard(r, h), enc["Uh"])))
    ones = Tensor(np.ones_like(u.data))
    return ad.add(ad.hadamard(ad.sub(ones, u), h), ad.hadamard(u, cand))


def ref_impute(y, mask, b):
    """y (n, d_y) with its unobserved entries replaced by b (1, d_y)."""
    n = y.data.shape[0]
    ones = Tensor(np.ones_like(mask.data))
    b_full = ad.expand(b, (n, b.data.shape[1]))
    return ad.add(ad.hadamard(y, mask), ad.hadamard(b_full, ad.sub(ones, mask)))


def ref_states(history, params):
    """The encoder's hidden states as a per-step graph of autodiff ops on
    per-gate tensors (:class:`PerBlockParams` or :class:`GateViews`), the
    zero state first: impute, assemble the input row, update the state."""
    cfg = params.cfg
    n = history.y.shape[1]
    hs = [Tensor(np.zeros((n, cfg.encoder_hidden_dim)))]
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
        hs.append(ref_gru(x, hs[-1], params.enc))
    return hs


def ref_encode(history, params, lengths):
    """The affine head on the states of :func:`ref_states` after each
    prefix length in `lengths`, as :func:`encode_prefixes` orders them."""
    hs = ref_states(history, params)
    return [op_graph_affine(hs[k], params.head_W, params.head_b) for k in lengths]


def run_node(node, inputs, params, seed, zeros=0.2):
    """Forward value and every gradient of sum(w * node(*inputs, params)),
    with every gradient buffer pre-filled; a share `zeros` of the buffer
    entries and of w is -0.0, so the order of accumulation and every added
    zero, with its sign, show in the bits."""
    rng = np.random.default_rng(seed)
    for t in list(inputs) + params:
        # drawn for every tensor, so freezing one leaves the others' draws
        buf = rng.normal(size=t.data.shape)
        buf[rng.uniform(size=t.data.shape) < zeros] = -0.0
        t.grad = buf if t.requires_grad else None
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
    return random_params(cfg, seed, scale=0.7)


def phi_config(d_y, m, d_a, layers, scaled):
    scale = tuple(0.5 + np.arange(d_a)) if scaled and d_a else None
    return ObsNodeConfig(d_y=d_y, m=m, d_a=d_a, phi_hidden_dim=5, phi_layers=layers,
                         encoder_hidden_dim=3, treatment_scale=scale)


def rhs_pair(d_y, m, d_a, layers, n, control, scaled, z_grad, seed, zeros=0.2,
             kink=False):
    """run_node results of the fused field and of its batched op graph; the
    control is (n, d_a), (1, d_a), or the (d_a,) row that a
    single-trajectory ControlPath gives. With `kink`, the first unit's state
    and the control are zero and every bias is +0.0 or -0.0, so each of that
    unit's pre-activations is exactly zero."""
    cfg = phi_config(d_y, m, d_a, layers, scaled)
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=(n, cfg.d_z))
    a0 = rng.normal(size={"batch": (n, d_a), "one_row": (1, d_a),
                          "path_row": (d_a,)}[control])
    if kink:
        z0[0] = 0.0
        a0[...] = 0.0
    results = []
    for node in (triangular_rhs, ref_batched_rhs):
        params = make_params(cfg, seed)
        if kink:
            for b in params.phi[2::2]:
                b.data = np.where(np.arange(b.data.size) % 2, -0.0, 0.0).reshape(b.shape)
        z = Tensor(z0.copy(), requires_grad=z_grad)
        a = Tensor(a0.copy())
        results.append(run_node(lambda z: node(z, a, params), (z,),
                                params.phi, seed + 2, zeros=zeros))
    return results


ENCODER = ("enc.W", "enc.U", "enc.Uh", "enc.b", "b_impute")


def freeze(params, names):
    """Clear the flag of the stored tensors named in `names`."""
    for name, t in zip(stored_names(params.cfg), params.tensors()):
        if name in names:
            t.requires_grad = False


def random_history(d_y, d_a, T, n, seed, observed=0.6):
    """A history on an uneven time grid, each y entry observed with
    probability `observed`; unobserved entries hold random placeholders."""
    rng = np.random.default_rng(seed)
    mask = (rng.uniform(size=(T, n, d_y)) < observed).astype(float)
    return History(np.cumsum(rng.uniform(0.1, 2.0, size=T)), rng.normal(size=(T, n, d_y)),
                   mask, rng.uniform(0.0, 3.0, size=(T, n, d_a)))


def encode_pair(d_y, d_a, T, n, lengths, seed, scaled=False, frozen=(), zeros=0.2,
                observed=0.6, hidden=4):
    """run_node results of :func:`encode_prefixes` and of :func:`ref_encode`
    on one history, the heads' outputs for `lengths` stacked; the stored
    encoder tensors named in `frozen` do not require grad."""
    scale = tuple(0.5 + np.arange(d_a)) if scaled and d_a else None
    cfg = ObsNodeConfig(d_y=d_y, m=2, d_a=d_a, phi_hidden_dim=3, encoder_hidden_dim=hidden,
                        treatment_scale=scale)
    hist = random_history(d_y, d_a, T, n, seed, observed)
    results = []
    for node in (lambda p: [s.z for s in encode_prefixes(hist, p, lengths)],
                 lambda p: ref_encode(hist, GateViews(p), lengths)):
        params = make_params(cfg, seed)
        freeze(params, frozen)
        results.append(run_node(lambda: ad.concat(node(params), axis=0), (),
                                params.tensors(), seed + 2, zeros=zeros))
    return results


class TestBitwiseAgainstOpGraph:
    @settings(max_examples=80, deadline=None)
    @given(d_y=st.integers(1, 3), m=st.integers(1, 3),
           d_a=st.sampled_from([0, 1, 2]),
           layers=st.integers(0, 2), n=st.sampled_from([1, 4]),
           control=st.sampled_from(["batch", "one_row", "path_row"]),
           scaled=st.booleans(), z_grad=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_triangular_rhs(self, d_y, m, d_a, layers, n, control, scaled, z_grad, seed):
        assert_bitwise(*rhs_pair(d_y, m, d_a, layers, n, control, scaled, z_grad, seed))

    @pytest.mark.parametrize("n,d_y", [(1, 1), (1, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros(self, n, d_y, seed):
        # with every buffer entry -0.0, each zero a node adds keeps the sign
        # that the op graph's reductions give it
        assert_bitwise(*rhs_pair(d_y, 2, 1, 1, n, "batch", False, True, seed,
                                 zeros=1.0))

    @pytest.mark.parametrize("n,d_y", [(1, 1), (1, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros_at_the_leaky_kink(self, n, d_y, seed):
        # test_signed_zeros on the leaky ReLU's kink, whose side the taped
        # field keeps from its forward pass: the first unit's
        # pre-activations sit on it in both hidden layers. A matmul sums from +0.0, so
        # they are +0.0 whichever sign the bias has; the slope's rule on
        # -0.0 itself is checked in test_autodiff.
        assert_bitwise(*rhs_pair(d_y, 2, 1, 2, n, "batch", False, True, seed,
                                 zeros=1.0, kink=True))

    @settings(max_examples=60, deadline=None)
    @given(d_y=st.integers(1, 2), d_a=st.sampled_from([0, 1, 2]), n=st.sampled_from([2, 3, 7]),
           hidden=st.integers(1, 5), data=st.data(), scaled=st.booleans(),
           frozen=st.sets(st.sampled_from(ENCODER), max_size=3), seed=st.integers(0, 2**16))
    def test_encode(self, d_y, d_a, n, hidden, data, scaled, frozen, seed):
        # the heads' outputs and every parameter gradient, for repeated and
        # unsorted prefix lengths, with some encoder tensors frozen; T
        # reaches past two blocks of input products
        T = data.draw(st.integers(1, 2 * (model.GRU_BLOCK_ROWS // n) + 2), label="T")
        lengths = data.draw(st.lists(st.integers(1, T), min_size=1, max_size=4),
                            label="lengths")
        assert_bitwise(*encode_pair(d_y, d_a, T, n, lengths, seed, scaled, frozen,
                                    hidden=hidden))

    @pytest.mark.parametrize("n,d_y", [(2, 1), (3, 2)])
    def test_encode_fixed_draws(self, n, d_y):
        # two fixed cases of test_encode: a failure shows at once, with no
        # shrinking search
        T = 8
        assert_bitwise(*encode_pair(d_y, 1, T, n, [T, 1, 5], seed=0, hidden=5))

    @pytest.mark.parametrize("n,d_y", [(2, 1), (3, 2)])
    @pytest.mark.parametrize("observed", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_encode_signed_zeros(self, n, d_y, observed, seed):
        # test_signed_zeros for the encoder, over three blocks of input
        # products; a fully observed history sends only zeros to b_impute
        T = 2 * (model.GRU_BLOCK_ROWS // n) + 1
        assert_bitwise(*encode_pair(d_y, 1, T, n, [T, 1, T // 2, T // 2], seed, zeros=1.0,
                                    observed=observed))


def assert_close(fused, ref, rtol=1e-12):
    """Each array of `fused` within rtol of its `ref` array, relative to the
    largest magnitude in that array."""
    assert len(fused) == len(ref)
    for f, r in zip(fused, ref):
        assert (f is None) == (r is None)
        if f is not None and r.size:
            assert np.max(np.abs(f - r)) <= rtol * np.max(np.abs(r)), \
                f"relative error {np.max(np.abs(f - r)) / np.max(np.abs(r)):.3e}"


def ref_integrate(z0, control, cfg, query_times, rhs):
    """:func:`~obsnode.odeint.integrate` of the field rhs(z, a) from t = 0 on
    the solver's step edges, each RK4 step written as ad.add and
    ad.scale over the stages. A step reads its input through one copy per
    use, made in reverse order of use, so the input's gradient sums as the
    step node's does: the update's term, then stage 1's to stage 4's."""
    out, z = {}, z0
    edges = odeint._step_boundaries(0.0, control, query_times, cfg)
    for lo, hi in zip(edges[:-1], edges[1:]):
        a, h = Tensor(value_at(control, lo)), hi - lo
        f = lambda s: rhs(s, a)
        z_in = ad.reshape(z, z.data.shape)
        z_upd, *zs = reversed([ad.reshape(z_in, z.data.shape) for _ in range(5)])
        k1 = f(zs[0])
        k2 = f(ad.add(zs[1], ad.scale(k1, h / 2.0)))
        k3 = f(ad.add(zs[2], ad.scale(k2, h / 2.0)))
        k4 = f(ad.add(zs[3], ad.scale(k3, h)))
        incr = ad.add(ad.add(k1, ad.scale(ad.add(k2, k3), 2.0)), k4)
        z = ad.add(z_upd, ad.scale(incr, h / 6.0))
        out[hi] = z
    return [out[t] for t in query_times]


def value_and_grads(node, z0, params, seed):
    """The value of node(z) and the gradients of z and of each phi entry of
    the checkpoint for the loss sum(w * value), from empty gradient
    buffers; `params` are stored or :class:`PerBlockParams`."""
    z = Tensor(z0.copy(), requires_grad=True)
    w = np.random.default_rng(seed).normal(size=node(z).data.shape)
    for t in params.tensors():
        t.zero_grad()
    with Tape() as tape:
        out = node(z)
        tape.backward(ad.tsum(ad.hadamard(out, Tensor(w))))
    grads = (checkpoint_grads(params) if hasattr(params, "parts")
             else {name: t.grad for name, t in params.by_name.items()})
    return [out.data, z.grad] + [g for name, g in grads.items() if name.startswith("phi")]


class TestStackedAgainstPerBlock:
    @settings(max_examples=80, deadline=None)
    @given(d_y=st.integers(1, 3), m=st.integers(1, 3), d_a=st.sampled_from([0, 1, 2]),
           layers=st.integers(0, 2), scaled=st.booleans(), n=st.sampled_from([1, 5, 25]),
           control=st.sampled_from(["batch", "path_row"]), seed=st.integers(0, 2**16))
    def test_field(self, d_y, m, d_a, layers, scaled, n, control, seed):
        # the batched field against the per-block op graph: values, per-block
        # parameter gradients and the state gradient
        cfg = phi_config(d_y, m, d_a, layers, scaled)
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=(n, cfg.d_z))
        a = Tensor(rng.normal(size=(n, d_a) if control == "batch" else (d_a,)))
        results = [value_and_grads(lambda z: node(z, a, params), z0, params, seed + 2)
                   for node, params in ((triangular_rhs, make_params(cfg, seed)),
                                        (ref_rhs, PerBlockParams(make_params(cfg, seed))))]
        assert_close(*results)


    @settings(max_examples=30, deadline=None)
    @given(d_y=st.integers(1, 2), d_a=st.sampled_from([0, 1, 2]), n=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**16))
    def test_encoder(self, d_y, d_a, n, seed):
        # the stacked gates against the per-gate op graph on the checkpoint's
        # named entries: the heads' outputs and every encoder gradient
        cfg = ObsNodeConfig(d_y=d_y, m=2, d_a=d_a, phi_hidden_dim=3, encoder_hidden_dim=4)
        hist = random_history(d_y, d_a, 7, n, seed)
        w = Tensor(np.random.default_rng(seed + 2).normal(size=(3 * n, cfg.d_z)))
        results = []
        for run in ("fused", "ops"):
            params = make_params(cfg, seed)
            if run == "ops":
                params = PerBlockParams(params)
            with Tape() as tape:
                zs = ([s.z for s in encode_prefixes(hist, params, [7, 2, 5])] if run == "fused"
                      else ref_encode(hist, params, [7, 2, 5]))
                out = ad.concat(zs, axis=0)
                tape.backward(ad.tsum(ad.hadamard(out, w)))
            grads = (checkpoint_grads(params) if run == "fused"
                     else {name: t.grad for name, t in params.by_name.items()})
            results.append([out.data] + [g for name, g in grads.items()
                                         if not name.startswith("phi")])
        assert_close(*results)


class TestSingleUnitEncoder:
    @settings(max_examples=40, deadline=None)
    @given(d_y=st.integers(1, 2), d_a=st.sampled_from([0, 1, 2]), data=st.data(),
           seed=st.integers(0, 2**16))
    def test_against_the_op_graph(self, d_y, d_a, data, seed):
        # a single unit's input products are rows of a block product, which
        # rounds otherwise than the op graph's one-row products. With these
        # N(0, 0.7) weights the recurrence carries that rounding to up to
        # about 2e-15 of the largest state over 66 steps.
        T = data.draw(st.integers(1, model.GRU_BLOCK_ROWS + 2), label="T")
        lengths = data.draw(st.lists(st.integers(1, T), min_size=1, max_size=3),
                            label="lengths")
        fused, ref = encode_pair(d_y, d_a, T, 1, lengths, seed)
        assert_close(fused[:1], ref[:1], rtol=1e-14)
        assert_close(fused[1:], ref[1:])


class TestNoLookAhead:
    @settings(max_examples=40, deadline=None)
    @given(d_y=st.integers(1, 2), d_a=st.sampled_from([0, 1, 2]), n=st.sampled_from([1, 2, 5]),
           data=st.data(), change=st.sampled_from(["y", "mask", "a"]),
           seed=st.integers(0, 2**16))
    def test_encoder_reads_nothing_past_its_prefix(self, d_y, d_a, n, data, change, seed):
        # y values, mask flips or treatments changed at the times after
        # prefix k, which share k's block of input products: the state at
        # k and every parameter gradient of a loss on it stay bitwise
        # equal, asked for alone and alongside a longer prefix
        T = data.draw(st.integers(2, 2 * (model.GRU_BLOCK_ROWS // n) + 2), label="T")
        k = data.draw(st.integers(1, T - 1), label="k")
        longer = data.draw(st.integers(k + 1, T), label="longer")
        cfg = ObsNodeConfig(d_y=d_y, m=2, d_a=d_a, phi_hidden_dim=3, encoder_hidden_dim=4)
        hist = random_history(d_y, d_a, T, n, seed)
        changed = History(hist.times, hist.y.copy(), hist.mask.copy(), hist.a.copy())
        rng = np.random.default_rng(seed + 3)
        if change == "mask":
            changed.mask[k:] = 1.0 - changed.mask[k:]
        else:
            part = getattr(changed, change)[k:]
            part += rng.normal(size=part.shape)
        w = Tensor(rng.normal(size=(n, cfg.d_z)))
        results = []
        for record in (hist, changed):
            for lengths in ([k], [k, longer], [longer, k]):
                params = make_params(cfg, seed)
                with Tape() as tape:
                    states = encode_prefixes(record, params, lengths)
                    z = states[lengths.index(k)].z
                    tape.backward(ad.tsum(ad.hadamard(z, w)))
                results.append([z.data] + [t.grad for t in params.tensors()])
        for other in results[1:]:
            assert_bitwise(other, results[0])

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 3]), knot_at_s=st.booleans(), data=st.data(),
           seed=st.integers(0, 2**16))
    def test_prediction_reads_no_control_past_its_time(self, n, knot_at_s, data, seed):
        # two control paths that agree before s, the second with a new knot
        # at s or with its first new knot after s: the predictions at the
        # query times up to s are bitwise equal, whatever step grid the
        # knots after s cut
        cfg = phi_config(2, 2, 2, 1, True)
        rng = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 10.0, size=4))])
        values = rng.uniform(0.0, 3.0, size=(times.size, n, 2))
        s = data.draw(st.one_of(st.floats(0.5, 9.5), st.sampled_from(list(times[1:]))),
                      label="s")
        keep = times < s
        new = s + np.concatenate([[0.0] if knot_at_s else [],
                                  np.cumsum(rng.uniform(0.01, 2.0, size=3))])
        other = ControlPath(np.concatenate([times[keep], new]),
                            np.concatenate([values[keep], rng.uniform(0.0, 3.0, size=(
                                new.size, n, 2))]))
        qts = list(rng.uniform(0.05, 12.0, size=6)) + data.draw(
            st.lists(st.just(s), max_size=1), label="query at s")
        int_cfg = IntegrationConfig(step_size=data.draw(st.floats(0.1, 1.0), label="step"))
        z0 = rng.normal(size=(n, cfg.d_z))
        preds = [forecast(EncodedState(z=Tensor(z0.copy()), t=0.0), control, qts,
                          make_params(cfg, seed), int_cfg)
                 for control in (ControlPath(times, values), other)]
        for qt, p, q in zip(qts, *preds):
            if qt <= s:
                assert p.data.tobytes() == q.data.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([1, 3]), change=st.sampled_from(["y", "mask", "a"]),
           data=st.data(), seed=st.integers(0, 2**16))
    def test_loss_reads_nothing_past_its_last_target(self, n, change, data, seed):
        # y values, mask flips or treatments changed after the last target
        # of the decision times (max_horizon set): _batch_loss's value and
        # every parameter gradient, and evaluate_loss's value, stay bitwise
        # equal
        T = 12
        hist = random_history(2, 2, T, n, seed)
        t_cs = data.draw(st.lists(st.sampled_from(list(hist.times[:6])), min_size=1,
                                  max_size=3), label="decision times")
        # at least the widest spacing, so every decision time has a target
        horizon = data.draw(st.floats(2.0, 5.0), label="max_horizon")
        # the last target, by the mask reference, not by the rule under test
        last = max(hist.times[mask_window(hist.times, t + horizon)[0]][-1] for t in t_cs)
        after = hist.times > last
        assume(after.any())
        tcfg = TrainConfig(decision_time_grid=t_cs, t_f=1e9, int_step=0.3,
                           max_horizon=horizon)
        cfg = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=4, encoder_hidden_dim=4)
        rng = np.random.default_rng(seed + 3)
        results = []
        for changed in (False, True):
            y, mask, a = hist.y.copy(), hist.mask.copy(), hist.a.copy()
            if changed and change == "mask":
                mask[after] = 1.0 - mask[after]
            elif changed:
                part = {"y": y, "a": a}[change]
                part[after] += rng.normal(size=part[after].shape)
            trajs = [Trajectory(unit_id=i, times=hist.times, y=y[:, i], mask=mask[:, i],
                                a=a[:, i]) for i in range(n)]
            params = make_params(cfg, seed)
            with Tape() as tape:
                loss = _batch_loss(stack_units(trajs),
                                   *decision_split(hist.times, t_cs[0], horizon),
                                   params, np.ones(2), IntegrationConfig(0.3))
                tape.backward(loss)
            val = evaluate_loss(trajs, params, np.ones(2), t_cs, tcfg)
            results.append([loss.data, np.float64(val)]
                           + [t.grad for t in params.tensors()])
        assert_bitwise(*results)


def observed_mask(rng, shape, unobserved):
    """A 0/1 mask of `shape` (T, n, d_y) observed with probability 0.6, in
    which each (unit, component) pair is, with probability `unobserved`,
    never observed."""
    mask = (rng.uniform(size=shape) < 0.6).astype(float)
    mask[:, rng.uniform(size=shape[1:]) < unobserved] = 0.0
    return mask


class TestTailAgainstOpGraph:
    """The encoder's head, the emission and the masked loss, each one node,
    against the op graphs they replace (tests/support.py): values and every
    gradient bitwise, signed zeros and the order of accumulation included."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 5]), H=st.integers(1, 4), d_z=st.integers(1, 6),
           seed=st.integers(0, 2**16))
    def test_head(self, n, H, d_z, seed):
        rng = np.random.default_rng(seed)
        x0, W0, b0 = (rng.normal(size=s) for s in ((n, H), (H, d_z), (1, d_z)))
        results = []
        for node in (model._head, op_graph_affine):
            x, W, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, W0, b0))
            results.append(run_node(lambda x: node(x, W, b), (x,), [W, b], seed + 1))
        assert_bitwise(*results)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 3]), d_y=st.integers(1, 3), m=st.integers(1, 3),
           data=st.data(), seed=st.integers(0, 2**16))
    def test_emissions(self, n, d_y, m, data, seed):
        # repeated states, as repeated query times give, take their
        # gradients in the op graph's order
        picks = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6), label="picks")
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=(4, n, m * d_y))
        results = []
        for node in (model.emissions, op_graph_emissions):
            zs = [Tensor(z.copy(), requires_grad=True) for z in z0]
            results.append(run_node(lambda *states: node(list(states), d_y),
                                    [zs[i] for i in picks], [], seed + 1, zeros=0.5))
        assert_bitwise(*results)

    @settings(max_examples=60, deadline=None)
    @given(T=st.integers(1, 5), n=st.sampled_from([1, 2, 4]), d_y=st.integers(1, 3),
           unobserved=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**16))
    def test_masked_loss(self, T, n, d_y, unobserved, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(T, n, d_y))
        mask = observed_mask(rng, y.shape, unobserved)
        sigma2 = rng.uniform(0.5, 2.0, size=d_y)
        p0 = rng.normal(size=y.shape)
        results = []
        for node in (train_mod.masked_loss, op_graph_loss):
            pred = Tensor(p0.copy(), requires_grad=True)
            results.append(run_node(lambda p: node(p, y, mask, sigma2), (pred,), [], seed + 1))
        assert_bitwise(*results)

    @settings(max_examples=40, deadline=None)
    @given(d_y=st.integers(1, 2), m=st.integers(1, 3), d_a=st.sampled_from([0, 2]),
           n=st.sampled_from([1, 2, 4]), unobserved=st.sampled_from([0.0, 0.5]),
           data=st.data(), seed=st.integers(0, 2**16))
    def test_batch_loss(self, d_y, m, d_a, n, unobserved, data, seed):
        # a training batch's loss and every parameter gradient with the
        # three nodes, and with the op graphs in their place
        T = 7
        k = data.draw(st.integers(1, T - 1), label="k")
        j = data.draw(st.integers(k + 1, T), label="j")
        hist = random_history(d_y, d_a, T, n, seed)
        hist.mask[...] = observed_mask(np.random.default_rng(seed + 1), hist.y.shape, unobserved)
        cfg = phi_config(d_y, m, d_a, 1, True)
        sigma2 = np.random.default_rng(seed + 2).uniform(0.5, 2.0, size=d_y)
        int_cfg = IntegrationConfig(0.4)
        results = []
        for graph in (False, True):
            params = make_params(cfg, seed)
            with pytest.MonkeyPatch.context() as mp:
                if graph:
                    mp.setattr(model, "_head", op_graph_affine)
                    mp.setattr(train_mod, "emissions", op_graph_emissions)
                    mp.setattr(train_mod, "masked_loss", op_graph_loss)
                with Tape() as tape:
                    loss = _batch_loss(hist, k, j, params, sigma2, int_cfg)
                    tape.backward(loss)
            results.append([loss.data] + [t.grad for t in params.tensors()])
        assert_bitwise(*results)


class TestFrozenInputs:
    """A frozen input (requires_grad False) of a fused node ends with no
    gradient, and every other gradient, accumulated into a pre-filled
    buffer, is bitwise that of the run with every input active."""

    @staticmethod
    def check(run, names, candidates, data):
        """run(frozen) gives the run_node results of the tensors `names`;
        a set of `candidates` is drawn and frozen."""
        frozen = data.draw(st.sets(st.sampled_from(candidates)), label="frozen")
        active, part = run(set()), run(frozen)
        assert active[0].tobytes() == part[0].tobytes()
        for name, a, p in zip(names, active[1:], part[1:]):
            assert p is None if name in frozen else p.tobytes() == a.tobytes()

    @staticmethod
    def params(cfg, seed, frozen):
        params = make_params(cfg, seed)
        freeze(params, frozen)
        return params

    @settings(max_examples=25, deadline=None)
    @given(layers=st.integers(0, 2), n=st.sampled_from([1, 4]),
           node=st.sampled_from(["rhs", "solve"]), data=st.data(), seed=st.integers(0, 2**16))
    def test_field(self, layers, n, node, data, seed):
        # the field alone (triangular_rhs) and through integrate, its state
        # and stored phi tensors frozen at random
        cfg = phi_config(2, 2, 2, layers, True)
        rng = np.random.default_rng(seed)
        z0, a = rng.normal(size=(n, cfg.d_z)), Tensor(rng.normal(size=(n, 2)))
        control = ControlPath(np.array([0.0, 0.6]), rng.normal(size=(2, n, 2)))

        def run(frozen):
            params = self.params(cfg, seed, frozen)

            def f(z):
                if node == "rhs":
                    return triangular_rhs(z, a, params)
                field, tensors = stack_field(params)
                return ad.concat(integrate(field, z, control, 0.0, IntegrationConfig(0.25),
                                           [0.7, 1.5], tensors), axis=1)

            z = Tensor(z0.copy(), requires_grad="z" not in frozen)
            return run_node(f, (z,), params.tensors(), seed + 2)

        names = ["z"] + stored_names(cfg)
        self.check(run, names, [n for n in names if n == "z" or n.startswith("phi")], data)

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([1, 3]), data=st.data(), seed=st.integers(0, 2**16))
    def test_encode(self, n, data, seed):
        # the encoder and its head, their tensors frozen at random
        cfg = ObsNodeConfig(d_y=2, m=2, d_a=1, phi_hidden_dim=3, encoder_hidden_dim=4)
        hist = random_history(2, 1, 9, n, seed)

        def run(frozen):
            params = self.params(cfg, seed, frozen)
            return run_node(lambda: ad.concat([s.z for s in encode_prefixes(
                hist, params, [9, 3, 5])], axis=0), (), params.tensors(), seed + 2)

        self.check(run, stored_names(cfg), ENCODER + ("head.W", "head.b"), data)


class TestStepNode:
    def test_against_the_op_graph_of_its_stages(self):
        # eight chained steps across a control knot, queried mid-solve and
        # at the end: the states, the gradients of z0 and of every phi entry
        # of the checkpoint, and the tape's length
        cfg = phi_config(2, 2, 2, 2, True)
        rng = np.random.default_rng(11)
        z0 = rng.normal(size=(3, cfg.d_z))
        control = ControlPath(np.array([0.0, 0.6]), rng.normal(size=(2, 3, 2)))
        int_cfg = IntegrationConfig(step_size=0.25)
        qts = [0.7, 1.5]
        w = [rng.normal(size=z0.shape) for _ in qts]
        results, sizes = [], []
        for run in ("fused", "ops"):
            params = make_params(cfg, 12)
            if run == "ops":
                params = PerBlockParams(params)
            z = Tensor(z0.copy(), requires_grad=True)
            with Tape() as tape:
                if run == "fused":
                    field, tensors = stack_field(params)
                    states = integrate(field, z, control, 0.0, int_cfg, qts, tensors)
                else:
                    states = ref_integrate(z, control, int_cfg, qts,
                                           lambda s, a: ref_rhs(s, a, params))
                loss = ad.tsum(ad.concat([ad.hadamard(s, Tensor(wk))
                                          for s, wk in zip(states, w)], axis=1))
                tape.backward(loss)
            sizes.append(len(tape))
            grads = (checkpoint_grads(params) if run == "fused"
                     else {name: t.grad for name, t in params.by_name.items()})
            results.append([s.data for s in states] + [z.grad]
                           + [g for name, g in grads.items() if name.startswith("phi")])
        assert_close(*results)
        # one node per step (3 to the knot at 0.6, 1 to the query at 0.7, 4
        # to 1.5) and the loss's 4
        assert sizes[0] == 8 + 4


class TestSolveAgainstOpGraph:
    @settings(max_examples=60, deadline=None)
    @given(layers=st.integers(0, 2), n=st.sampled_from([1, 3]),
           control=st.sampled_from(["batch", "path_row"]), seed=st.integers(0, 2**16))
    @example(layers=1, n=3, control="batch", seed=0)
    def test_taped_solve(self, layers, n, control, seed):
        # the step nodes on the fused field, whose backward passes rebuild
        # the hidden layers, against ref_integrate on the field's batched op
        # graph, across a knot and queried mid-solve: the states and the
        # gradients of z0 and of every stored phi tensor, bitwise. At n = 1,
        # and for a path row, the control term is shared by the units.
        cfg = phi_config(2, 2, 2, layers, True)
        rng = np.random.default_rng(seed)
        z0 = rng.normal(size=(n, cfg.d_z))
        path = ControlPath(np.array([0.0, 0.6]),
                           rng.normal(size=(2, n, 2) if control == "batch" else (2, 2)))
        int_cfg = IntegrationConfig(0.25)
        results = []
        for fused in (True, False):
            params = make_params(cfg, seed)

            def solve(z):
                if fused:
                    field, tensors = stack_field(params)
                    states = integrate(field, z, path, 0.0, int_cfg, [0.7, 1.5], tensors)
                else:
                    states = ref_integrate(z, path, int_cfg, [0.7, 1.5],
                                           lambda s, a: ref_batched_rhs(s, a, params))
                return ad.concat(states, axis=1)

            z = Tensor(z0.copy(), requires_grad=True)
            results.append(run_node(solve, (z,), params.phi, seed + 2))
        assert_bitwise(*results)


class TestTapeBytes:
    """After a taped 16-step RK4 solve at n = 25, m = 2, w = 32, the tape
    holds no entry of any hidden layer: each step keeps its stage inputs,
    and its backward pass rebuilds every (m, n, w) activation (8 bytes an
    entry), the leaky ReLU's one-byte mask and the control term from them.
    The bound is 0.1 of one layer's float64 entries over the solve
    (81,920 B): room for the stage inputs, the states, the closures and the
    bias tiles (at most about 59 KB), but not for one kept mask
    (102,400 B), nor for the control term of each of the 4 segments
    (51,200 B)."""
    m, n, w, steps = 2, 25, 32, 16

    def held(self, layers):
        """(bytes the tape holds, entries of one hidden layer over the solve)."""
        m, n, w = self.m, self.n, self.w
        cfg = ObsNodeConfig(d_y=1, m=m, d_a=1, phi_hidden_dim=w, phi_layers=layers,
                            encoder_hidden_dim=3)
        params = make_params(cfg, 5)
        rng = np.random.default_rng(6)
        z = Tensor(rng.normal(size=(n, cfg.d_z)), requires_grad=True)
        control = ControlPath(np.arange(4.0), rng.normal(size=(4, n, 1)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                field, tensors = stack_field(params)
                states = integrate(field, z, control, 0.0, IntegrationConfig(step_size=0.25),
                                   [4.0], tensors)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == self.steps and states[0].requires_grad
        return held, self.steps * 4 * m * n * w

    def test_taped_solve_keeps_only_what_the_vjps_read(self):
        # two hidden layers: either one's activation or mask kept over the
        # solve breaks the bound
        held, layer = self.held(2)
        assert held <= 0.1 * layer * 8

    def test_one_hidden_layer_keeps_no_activation(self):
        held, layer = self.held(1)
        assert held <= 0.1 * layer * 8

    def test_taped_encoder_keeps_three_gates_a_step(self):
        # a taped pass over T steps keeps per step the gates r and u and
        # the candidate, (n, H) each, and the (T + 1, n, H) state history:
        # (4 T + 1) n H float64 entries. The bound adds half an (n, H)
        # array per step for the cell inputs, the array headers and the
        # nodes (about a quarter); a kept r h, one more a step, breaks it
        T, n, H = 20, 25, 32
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=3, encoder_hidden_dim=H)
        params = make_params(cfg, 7)
        history = random_history(1, 1, T, n, seed=8)
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                states = encode_prefixes(history, params, [T, 5, 12])
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 6 and all(s.z.requires_grad for s in states)
        assert held <= (4 * T + 1 + 0.5 * T) * n * H * 8


class TestFusedGradCheck:
    def setup_method(self):
        cfg = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=6, phi_layers=2,
                            encoder_hidden_dim=5,
                            treatment_scale=(2.0, 0.5))
        self.params = make_params(cfg, 3)
        rng = np.random.default_rng(4)
        self.z = Tensor(rng.normal(size=(3, cfg.d_z)))
        self.a = Tensor(rng.normal(size=(1, cfg.d_a)))
        self.w = Tensor(rng.normal(size=(3, cfg.d_z)))
        self.history = random_history(cfg.d_y, cfg.d_a, 7, 3, seed=5)
        self.wz = Tensor(rng.normal(size=(9, cfg.d_z)))

    def rhs_loss(self):
        out = triangular_rhs(self.z, self.a, self.params)
        return ad.tsum(ad.hadamard(out, self.w))

    def encode_loss(self):
        states = encode_prefixes(self.history, self.params, [7, 2, 5])
        return ad.tsum(ad.hadamard(ad.concat([s.z for s in states], axis=0), self.wz))

    def test_triangular_rhs(self):
        # the stored first-layer z rows, their padding included, and the
        # biases of the first later layer
        assert grad_check(self.rhs_loss, self.z) < 1e-7
        for W in (self.params.phi[0], self.params.phi[4]):
            assert grad_check(self.rhs_loss, W) < 1e-7

    def test_triangular_rhs_control_is_constant(self):
        # the node has no gradient for its control, so asking for one fails
        a = Tensor(self.a.data, requires_grad=True)
        with pytest.raises(ValueError, match="control"):
            triangular_rhs(self.z, a, self.params)

    def test_encode_prefixes(self):
        for t in (self.params.b_impute, *self.params.enc):
            assert grad_check(self.encode_loss, t) < 1e-7


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

    @pytest.mark.parametrize("field", ["y", "a", "times"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_encoder_input(self, field, bad):
        # an observed y, a treatment or a time that is not finite
        hist = random_history(1, 1, 4, 2, seed=6, observed=1.0)
        getattr(hist, field)[-1] = bad
        with pytest.raises(NumericError, match="encode_prefixes"):
            encode_prefixes(hist, self.params, [4])
