import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from obsnode import autodiff as ad
from obsnode.autodiff import Adam, Tape, Tensor, grad_check
from obsnode.errors import DataError, NumericError, ShapeMismatch
from obsnode.model import ObsNodeConfig, ObsNodeParams, load_model, save_model
from obsnode.train import NormStats


def mlp_loss(widths, seed):
    """Random MLP + mean; returns f(x Tensor) -> scalar Tensor."""
    rng = np.random.default_rng(seed)
    weights = [Tensor(rng.normal(0, 1 / np.sqrt(a), size=(a, b)))
               for a, b in zip(widths[:-1], widths[1:])]
    biases = [Tensor(rng.normal(0, 0.1, size=(1, b))) for b in widths[1:]]

    def f(x):
        h = x
        for i, (W, b) in enumerate(zip(weights, biases)):
            h = ad.add(ad.matmul(h, W), ad.expand(b, (h.data.shape[0], W.data.shape[1])))
            if i < len(weights) - 1:
                h = ad.tanh(h)
        return ad.tmean(h)

    return f


class TestForwardOps:
    def test_matmul_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_leaky_relu_negative(self):
        # direct evaluation of max(x, 0.01 x) at x = -2
        assert ad.leaky_relu(Tensor([-2.0])).data[0] == pytest.approx(-0.02, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(
               allow_nan=False, allow_infinity=False, allow_subnormal=True)),
           g=hnp.arrays(np.float64, 8, elements=st.floats(
               allow_nan=False, allow_infinity=False, allow_subnormal=True)))
    @example(x=np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                         np.finfo(float).max, -np.finfo(float).max]),
             g=np.array([1.0, -1.0, -0.0, 0.0, 5e-324, -5e-324,
                         np.finfo(float).max, -np.finfo(float).max]))
    def test_leaky_relu_matches_its_select_form_bitwise(self, x, g):
        # max(x, slope x) and the select of the slope on g against the
        # np.where / multiply forms, signed zeros and subnormals included
        fwd, vjp = ad.ACTIVATIONS["leakyrelu"]
        g = g[:x.size]
        slope = ad.LEAKY_RELU_SLOPE
        assert fwd(x).tobytes() == np.where(x >= 0, x, slope * x).tobytes()
        assert (vjp(g, x, fwd(x)).tobytes()
                == (g * np.where(x >= 0, 1.0, slope)).tobytes())

    def test_shape_mismatch_names_operation(self):
        with pytest.raises(ShapeMismatch) as e:
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        assert "add" in str(e.value)
        assert "(3,)" in str(e.value) and "(4,)" in str(e.value)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_forward_deterministic(self):
        x = np.random.default_rng(0).normal(size=(4, 4))
        a = ad.tanh(Tensor(x)).data
        b = ad.tanh(Tensor(x)).data
        assert (a == b).all()


class TestBackward:
    def test_square_sum(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.square(x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_tanh_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.tsum(ad.tanh(x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [1.0])

    def test_loss_must_be_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.square(x)
            with pytest.raises(ShapeMismatch):
                tape.backward(y)

    def test_detached_tensor_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])  # detached
        with Tape() as tape:
            loss = ad.tsum(ad.hadamard(x, c))
            tape.backward(loss)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [2.0])

    def test_accumulation_without_reset(self):
        x = Tensor([3.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = ad.tsum(ad.square(x))
                tape.backward(loss)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_diamond_graph_sums_contributions(self):
        # loss = sum((x + x)^2) = 4 x^2 -> grad = 8 x; shared subexpression x
        x = Tensor([1.5], requires_grad=True)
        with Tape() as tape:
            s = ad.add(x, x)
            loss = ad.tsum(ad.square(s))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, [12.0])
        err = grad_check(lambda: ad.tsum(ad.square(ad.add(x, x))), x)
        assert err < 1e-8

    def test_two_layer_network_matches_fd(self):
        f = mlp_loss([3, 5, 1], seed=7)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
        assert grad_check(lambda: f(x), x) < 1e-5


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = Tensor([3.0])
        err = grad_check(lambda: ad.tsum(ad.square(x)), x)
        assert err < 1e-8

    def test_constant_function(self):
        err = grad_check(lambda: ad.tsum(Tensor([4.0])), Tensor([1.0, 2.0]))
        assert err == 0.0

    def test_composed_mlp(self):
        f = mlp_loss([4, 8, 8, 1], seed=3)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        assert grad_check(lambda: f(x), x) < 1e-5

    @pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.leaky_relu, ad.square,
                                    ad.tmean, ad.tsum],
                             ids=["tanh", "sigmoid", "leaky_relu", "square", "mean", "sum"])
    def test_unary_ops_against_fd(self, op):
        rng = np.random.default_rng(hash(op.__name__) % 2**32)
        for _ in range(5):
            x = Tensor(rng.normal(size=(3, 4)) + 0.3)  # offset keeps leaky_relu off its kink
            err = grad_check(lambda: ad.tsum(ad.square(op(x))), x)
            assert err < 1e-5

    def test_concat_slice_reshape_expand(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 6)))

        def f(t):
            a = ad.slice_axis(t, 0, 3, axis=1)
            b = ad.slice_axis(t, 3, 6, axis=1)
            c = ad.concat([b, a], axis=1)
            d = ad.reshape(c, (4, 3))
            e = ad.hadamard(d, ad.expand(Tensor(np.ones((1, 3)) * 0.5), (4, 3)))
            return ad.tsum(ad.square(e))

        assert grad_check(lambda: f(x), x) < 1e-6


def _perfbench_ops():
    """The op names perfbench's tracer counts (perfbench/tracer.OPS)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.OPS


def _array(draw, shape, elements=st.floats(-2.0, 2.0)):
    return draw(hnp.arrays(np.float64, shape, elements=elements))


# Keeps leaky_relu at least 1e-3 off its kink, where central differences
# straddle the two slopes.
OFF_KINK = st.floats(1e-3, 2.0).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def op_case(draw, name):
    """(x, f): an input and a function of it through the op `name`, whose
    other operands and arguments are drawn alongside."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    op = getattr(ad, name)
    x = _array(draw, (r, c), OFF_KINK if name == "leaky_relu" else st.floats(-2.0, 2.0))
    first = draw(st.booleans())  # x as the first operand or the second
    if name in ("add", "sub", "hadamard"):
        y = Tensor(_array(draw, (r, c)))
        f = (lambda t: op(t, y)) if first else (lambda t: op(y, t))
    elif name == "scale":
        k = draw(st.floats(-3.0, 3.0))
        f = lambda t: op(t, k)
    elif name == "matmul":
        k = draw(st.integers(1, 4))
        if first:
            y = Tensor(_array(draw, (c, k)))
            f = lambda t: op(t, y)
        else:
            y = Tensor(_array(draw, (k, r)))
            f = lambda t: op(y, t)
    elif name == "concat":
        axis = draw(st.sampled_from([0, 1, -1]))
        shape = [r, c]
        shape[axis] = draw(st.integers(1, 3))
        y = Tensor(_array(draw, tuple(shape)))
        f = lambda t: op([t, y] if first else [y, t], axis=axis)
    elif name == "slice_axis":
        axis = draw(st.sampled_from([0, 1, -1]))
        n = (r, c)[axis]
        start = draw(st.integers(0, n - 1))
        stop = draw(st.integers(start + 1, n))
        f = lambda t: op(t, start, stop, axis=axis)
    elif name == "reshape":
        shape = draw(st.sampled_from([(c, r), (r * c,), (1, r * c), (r, c, 1)]))
        f = lambda t: op(t, shape)
    elif name == "expand":
        k = draw(st.integers(1, 3))
        x = x[:1]
        shape = draw(st.sampled_from([(k, c), (2, k, c)]))
        f = lambda t: op(t, shape)
    else:  # the unary ops
        f = op
    out_shape = f(Tensor(x)).shape
    w = Tensor(_array(draw, out_shape))
    return Tensor(x), lambda t: ad.tsum(ad.hadamard(f(t), w))


class TestOpSweep:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("name", _perfbench_ops())
    def test_op_gradient_matches_finite_differences(self, name, data):
        x, f = data.draw(op_case(name), label="case")
        assert grad_check(lambda: f(x), x) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(["add", "sub", "hadamard"]),
           a=hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
           b=hnp.array_shapes(min_dims=0, max_dims=3, max_side=3))
    @example(name="hadamard", a=(3,), b=())  # a scalar does not broadcast
    @example(name="add", a=(), b=(1,))
    def test_unequal_shapes_raise_naming_the_op(self, name, a, b):
        assume(a != b)
        with pytest.raises(ShapeMismatch, match=f"^{name}: "):
            getattr(ad, name)(Tensor(np.ones(a)), Tensor(np.ones(b)))


def adam_on(values, grad):
    """An optimizer (lr 1e-3) over one tensor holding `values` whose gradient
    is `grad`."""
    t = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
    t.grad = np.array(grad, dtype=np.float64)
    return t, Adam([t], lr=1e-3)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        t, opt = adam_on([1.0, 2.0], np.zeros(2))
        opt.step()
        np.testing.assert_array_equal(t.data, [1.0, 2.0])
        np.testing.assert_array_equal(opt.m[0], [0.0, 0.0])
        np.testing.assert_array_equal(opt.v[0], [0.0, 0.0])
        assert opt.t == 1

    def test_first_step_bias_corrected(self):
        # m-hat = v-hat = 1 -> delta = -lr / (1 + eps)
        t, opt = adam_on([0.0], np.ones(1))
        opt.step()
        np.testing.assert_allclose(t.data, [-1e-3 / (1 + 1e-8)], rtol=0, atol=1e-15)

    def test_constant_gradient_steps(self):
        t, opt = adam_on([0.0], np.ones(1))
        prev = 0.0
        for _ in range(2):
            opt.step()
            assert abs(abs(t.data[0] - prev) - 1e-3) < 1e-9
            prev = t.data[0]

    def test_shape_mismatch(self):
        t, opt = adam_on(np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeMismatch):
            opt.step()
        np.testing.assert_array_equal(t.data, [0.0, 0.0])

    def test_wrapper_matches_functional(self):
        t = Tensor([1.0], requires_grad=True)
        opt = Adam([t], lr=0.01)
        with Tape() as tape:
            tape.backward(ad.tsum(ad.square(t)))
        opt.step()
        assert t.data[0] < 1.0


class TestCheckpoint:
    """The checkpoint file, written by save_model and read by load_model."""

    def test_roundtrip_exact(self, tmp_path):
        cfg = ObsNodeConfig(d_y=2, m=2, d_a=1, phi_hidden_dim=4, encoder_hidden_dim=4)
        params = ObsNodeParams(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for t in params.tensors():
            t.data = rng.normal(size=t.data.shape)
        stats = NormStats(mean=[1.5, -2.0], std=[0.1, 3.0])
        path = tmp_path / "ckpt.json"
        save_model(path, params, norm_stats=stats)
        loaded, cfg2, stats2 = load_model(path)
        assert cfg2 == cfg
        np.testing.assert_array_equal(stats2.mean, stats.mean)
        np.testing.assert_array_equal(stats2.std, stats.std)
        assert [n for n, _ in loaded.named_parameters()] == \
            [n for n, _ in params.named_parameters()]
        for (_, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_17_significant_digits(self, tmp_path):
        params = ObsNodeParams(ObsNodeConfig(d_y=1, m=1, d_a=0),
                               np.random.default_rng(0))
        params.b_impute.data[0, 0] = 1.0 / 3.0
        path = tmp_path / "c.json"
        save_model(path, params)
        assert "0.33333333333333331" in path.read_text()
        assert load_model(path)[0].b_impute.data[0, 0] == 1.0 / 3.0

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"format_version": 9, "tensors": []}')
        with pytest.raises(DataError, match="format_version must be 1"):
            load_model(path)


def test_gradients_match_fd_on_100_random_networks():
    """Acceptance-style sweep: 100 random small nets pass grad_check < 1e-5."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        widths = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))] + [1]
        f = mlp_loss(widths, seed=trial)
        x = Tensor(rng.normal(size=(2, widths[0])))
        worst = max(worst, grad_check(lambda: f(x), x))
    assert worst < 1e-5
