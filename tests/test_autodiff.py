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
from support import PerTensorAdam, identity_stats


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
        fwd, keep, vjp = ad.ACTIVATIONS["leakyrelu"]
        g = g[:x.size]
        slope = ad.LEAKY_RELU_SLOPE
        assert fwd(x).tobytes() == np.where(x >= 0, x, slope * x).tobytes()
        assert (vjp(g, keep(x), fwd(x)).tobytes()
                == (g * np.where(x >= 0, 1.0, slope)).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(1, 8))
    def test_sigmoid_matches_its_select_form_bitwise(self, data, size):
        # one division of 1.0 or e by 1 + e against the select of the two
        # quotients, and the leaky slope rebuilt from its mask against its
        # select (the VJP of a unit gradient), as
        # int64 views: signed zeros, subnormals, infinities, NaN of either
        # sign, and |x| > 745, where exp(-|x|) underflows to 0
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf,
                                   np.nan, -np.nan, 745.2, -745.2, 1e300, -1e300])
        values = st.one_of(special, st.floats(allow_nan=False, allow_subnormal=True))
        x = data.draw(hnp.arrays(np.float64, size, elements=values))
        e = np.exp(-np.abs(x))
        select = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(ad._sigmoid(x).view(np.int64), select.view(np.int64))
        fwd, keep, vjp = ad.ACTIVATIONS["leakyrelu"]
        slope = np.where(x >= 0, 1.0, ad.LEAKY_RELU_SLOPE)
        assert np.array_equal(vjp(np.ones(size), keep(x), fwd(x)).view(np.int64),
                              slope.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(1, 8))
    def test_saved_leaky_slope_matches_the_activation_bitwise(self, data, size):
        # the taped field keeps the mask x >= 0, from which the VJP
        # rebuilds the slope d = max(mask, slope): as int64 views, x * d is
        # the activation and g * d both of its VJP forms, at signed zeros,
        # subnormals, infinities and NaN of either sign
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf,
                                   np.nan, -np.nan])
        values = st.one_of(special, st.floats(allow_nan=False, allow_subnormal=True))
        x, g = (data.draw(hnp.arrays(np.float64, size, elements=values)) for _ in range(2))
        fwd, keep, vjp = ad.ACTIVATIONS["leakyrelu"]
        d = np.maximum(keep(x), ad.LEAKY_RELU_SLOPE)
        select = np.where(x >= 0, g, ad.LEAKY_RELU_SLOPE * g)
        assert np.array_equal((x * d).view(np.int64), fwd(x).view(np.int64))
        assert np.array_equal((g * d).view(np.int64), vjp(g, keep(x), fwd(x)).view(np.int64))
        assert np.array_equal((g * d).view(np.int64), select.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(ad.ACTIVATIONS)),
           shape=st.sampled_from([(1,), (7,), (33,), (2, 3, 5), (4, 2, 3, 9)]))
    def test_forward_into_its_own_input_is_the_out_of_place_value(self, data, name, shape):
        # the field runs each activation in place, act(pre, out=pre): as
        # int64 views it equals the out-of-place value at signed zeros,
        # subnormals, infinities, NaN of either sign and values whose exp
        # underflows, over lengths that take a vector loop and its tail
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                                   np.inf, -np.inf, np.nan, -np.nan, 745.2, -745.2])
        values = st.one_of(special, st.floats(allow_nan=False, allow_subnormal=True))
        x = data.draw(hnp.arrays(np.float64, shape, elements=values))
        fwd = ad.ACTIVATIONS[name][0]
        apart = fwd(x)
        inplace = x.copy()
        assert fwd(inplace, out=inplace) is inplace
        assert np.array_equal(inplace.view(np.int64), apart.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_kept_mask_gives_the_slope_that_y_cannot(self, data):
        # at x = -k 2^-1074 for k < 50, slope x rounds to -0.0, so the
        # activation is -0.0 there as at x = -0.0, yet the slope is 0.01:
        # the mask the taped passes keep gives the slope where x >= 0 gives
        # it, as int64 views, also at +-0, +-inf and NaN of either sign,
        # and reading it back from y would not
        band = st.integers(1, 49).map(lambda k: -k * 5e-324)
        special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
        x = np.array([data.draw(band)] + data.draw(st.lists(st.one_of(band, special),
                                                            max_size=7)))
        fwd, keep, vjp = ad.ACTIVATIONS["leakyrelu"]
        y = fwd(x)
        tiny = (x < 0) & (x > -50 * 5e-324)
        assert np.array_equal(y[tiny].view(np.int64), np.full(tiny.sum(), -0.0).view(np.int64))
        slope = np.where(x >= 0, 1.0, ad.LEAKY_RELU_SLOPE)
        assert np.array_equal(vjp(np.ones_like(x), keep(x), y).view(np.int64),
                              slope.view(np.int64))
        from_y = np.where(y >= 0, 1.0, ad.LEAKY_RELU_SLOPE)
        assert (from_y[tiny] == 1.0).all() and (slope[tiny] == ad.LEAKY_RELU_SLOPE).all()

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

    def test_loss_that_requires_no_grad_is_not_seeded(self):
        # _accum decides for the loss as for any tensor
        with Tape() as tape:
            loss = ad.tsum(Tensor([1.0, 2.0]))
            tape.backward(loss)
        assert loss.grad is None and len(tape) == 0

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

    def test_raising_f_restores_the_values(self):
        # f raises on the first perturbed call of the central differences
        x = Tensor([1.0, 2.0])
        calls = []

        def f():
            calls.append(None)
            if len(calls) == 2:
                raise NumericError("injected")
            return ad.tsum(ad.square(x))

        with pytest.raises(NumericError, match="injected"):
            grad_check(f, x)
        assert x.data.tolist() == [1.0, 2.0]

    def test_raising_f_restores_the_flag(self):
        # f raises under the tape
        x = Tensor([1.0, 2.0])

        def f():
            raise NumericError("injected")

        with pytest.raises(NumericError, match="injected"):
            grad_check(f, x)
        assert not x.requires_grad


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


@st.composite
def op_node(draw, name):
    """(arrays, f): every input of one node of the op `name`, and a function
    of their Tensors that records it; the other arguments are drawn."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    op = getattr(ad, name)
    if name in ("add", "sub", "hadamard"):
        return [_array(draw, (r, c)), _array(draw, (r, c))], op
    if name == "matmul":
        return [_array(draw, (r, c)), _array(draw, (c, draw(st.integers(1, 4))))], op
    if name == "concat":
        axis = draw(st.sampled_from([0, 1, -1]))
        shapes = [[r, c] for _ in range(draw(st.integers(1, 3)))]
        for shape in shapes:
            shape[axis] = draw(st.integers(1, 3))
        return [_array(draw, tuple(s)) for s in shapes], lambda *ts: op(ts, axis=axis)
    x, f = draw(op_case(name))  # a unary op: its one input
    return [x.data], f


class TestOpSweep:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("name", _perfbench_ops())
    def test_op_gradient_matches_finite_differences(self, name, data):
        x, f = data.draw(op_case(name), label="case")
        assert grad_check(lambda: f(x), x) < 1e-6

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("name", _perfbench_ops())
    def test_frozen_inputs_take_no_gradient(self, name, data):
        # a node's inputs, some frozen (requires_grad False): each frozen
        # one ends with no gradient, and every other gradient is bitwise
        # that of the run with every input active
        arrays, f = data.draw(op_node(name), label="node")
        frozen = data.draw(st.sets(st.sampled_from(range(len(arrays)))), label="frozen")
        w = np.random.default_rng(0).normal(size=f(*map(Tensor, arrays)).shape)

        def grads(frozen):
            ts = [Tensor(x.copy(), requires_grad=i not in frozen) for i, x in enumerate(arrays)]
            with Tape() as tape:
                tape.backward(ad.tsum(ad.hadamard(f(*ts), Tensor(w))))
            return [t.grad for t in ts]

        active = grads(set())
        for i, g in enumerate(grads(frozen)):
            if i in frozen:
                assert g is None
            else:
                assert g.tobytes() == active[i].tobytes()

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
    [t] = ad.flat_params([np.shape(values)])
    t.data = values
    t.grad = np.array(grad, dtype=np.float64)
    return t, Adam([t], lr=1e-3)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        t, opt = adam_on([1.0, 2.0], np.zeros(2))
        opt.step()
        np.testing.assert_array_equal(t.data, [1.0, 2.0])
        np.testing.assert_array_equal(opt.m, [0.0, 0.0])
        np.testing.assert_array_equal(opt.v, [0.0, 0.0])
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
        t, opt = adam_on([1.0], [0.0])
        opt.lr = 0.01
        t.zero_grad()
        with Tape() as tape:
            tape.backward(ad.tsum(ad.square(t)))
        opt.step()
        assert t.data[0] < 1.0


    def test_tensors_that_do_not_tile_one_buffer_are_refused(self):
        a, b = ad.flat_params([(2,), (3,)])
        with pytest.raises(ValueError, match="tile one flat buffer"):
            Adam([b, a])
        with pytest.raises(ValueError, match="tile one flat buffer"):
            Adam([a])
        with pytest.raises(ValueError, match="tile one flat buffer"):
            Adam([Tensor([1.0, 2.0], requires_grad=True)])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_an_overflowing_norm_clips_to_the_bound(self):
        # g * g overflows for a finite gradient: the norm is measured on
        # g / max|g|, so the clipped gradient has norm 1 and the step is
        # about lr on the two large entries, not zero
        t, opt = adam_on([0.0, 0.0, 0.0], [1e200, -1e200, 1.0])
        opt.step(max_grad_norm=1.0)
        np.testing.assert_allclose(np.linalg.norm(opt.m / (1.0 - 0.9)), 1.0, rtol=1e-15)
        np.testing.assert_allclose(t.data[:2], [-1e-3, 1e-3], rtol=1e-7)
        assert abs(t.data[2]) < 1e-150

    def test_a_gradient_inside_the_bound_is_not_clipped(self):
        t, opt = adam_on([0.0, 0.0], [0.3, -0.4])
        opt.step(max_grad_norm=0.5)
        assert opt.m.tolist() == [(1.0 - 0.9) * 0.3, (1.0 - 0.9) * -0.4]

    def test_a_refused_step_is_not_counted(self):
        # the scan comes before the step count, so the next step's bias
        # corrections are those of the steps taken
        t, = ad.flat_params([(3,)])
        opt = Adam([t], lr=0.1)
        t.grad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NumericError, match="^gradient: non-finite value$"):
            opt.step()
        assert opt.t == 0

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(1, 3), max_size=2).map(tuple),
                           min_size=1, max_size=3),
           seed=st.integers(0, 2**16), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           clip=st.sampled_from([None, 1.0]), data=st.data())
    def test_a_nonfinite_gradient_changes_nothing(self, shapes, seed, bad, clip, data):
        # NaN or +-inf at a live entry is refused before the buffer, m, v or
        # t change; at a frozen entry it is zeroed like any frozen gradient
        # and the step is the one a zero there takes
        tensors = ad.flat_params(shapes)
        rng = np.random.default_rng(seed)
        size = sum(t.data.size for t in tensors)
        frozen = rng.uniform(size=size) < 0.3
        assume(not frozen.all())
        opt = Adam(tensors, lr=0.1, parts=[np.flatnonzero(~frozen)])
        opt.flat[...] = rng.normal(size=size)

        def step(grad):
            for t, g in zip(tensors, np.split(grad, np.cumsum([t.data.size for t in tensors]))):
                t.grad = g.reshape(t.data.shape).copy()
            opt.step(max_grad_norm=clip)

        for _ in range(3):
            step(rng.normal(size=size))
        state = lambda: [opt.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.t]
        before = state()
        grad = rng.normal(size=size)
        poisoned = grad.copy()
        poisoned[data.draw(st.sampled_from(np.flatnonzero(~frozen).tolist()))] = bad
        with pytest.raises(NumericError, match="^gradient: non-finite value$"):
            step(poisoned)
        assert state() == before
        if frozen.any():
            at = data.draw(st.sampled_from(np.flatnonzero(frozen).tolist()))
            grad[at] = 0.0
            step(grad)
            after = state()
            opt.flat[...], opt.m[...], opt.v[...] = (np.frombuffer(b) for b in before[:3])
            opt.t = before[3]
            grad[at] = bad
            step(grad)
            assert state() == after and opt.t == before[3] + 1


@st.composite
def adam_case(draw):
    """Shapes of 1 to 4 tensors, and per step of 20 to 24 each one's
    gradient or None."""
    shapes = draw(st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                           min_size=1, max_size=4))
    steps = draw(st.integers(20, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    grads = [[None if rng.uniform() < 0.2 else rng.normal(0.0, scale, size=s) for s in shapes]
             for _ in range(steps)]
    return shapes, grads


class TestAdamAgainstPerTensor:
    @settings(max_examples=60, deadline=None)
    @given(case=adam_case(), clip=st.sampled_from([None, 0.5, 1e3]),
           lr=st.sampled_from([1e-3, 0.1]))
    def test_bitwise(self, case, clip, lr):
        # the flat update against the per-tensor one: data, m and v, as
        # int64 views, after every step
        shapes, grads = case
        flat = ad.flat_params(shapes)
        rng = np.random.default_rng(len(grads))
        start = [rng.normal(size=s) for s in shapes]
        ref = [Tensor(x.copy(), requires_grad=True) for x in start]
        for t, x in zip(flat, start):
            t.data = x
        opt, ref_opt = Adam(flat, lr=lr), PerTensorAdam(ref, lr=lr)
        bits = lambda arrays: np.concatenate([a.reshape(-1) for a in arrays]).view(np.int64)
        for step in grads:
            for ts in (flat, ref):
                for t, g in zip(ts, step):
                    t.grad = None if g is None else g.copy()
            opt.step(max_grad_norm=clip)
            ref_opt.step(max_grad_norm=clip)
            assert (bits([t.data for t in flat]) == bits([t.data for t in ref])).all()
            assert (opt.m.view(np.int64) == bits(ref_opt.m)).all()
            assert (opt.v.view(np.int64) == bits(ref_opt.v)).all()


class TestParam:
    def test_same_shape_assignment_writes_into_the_buffer(self):
        a, b = ad.flat_params([(2,), (2, 2)])
        view = b.data
        b.data = [[1.0, 2.0], [3.0, 4.0]]
        assert b.data is view
        assert a.data.base.tolist() == [0.0, 0.0, 1.0, 2.0, 3.0, 4.0]
        b.data -= 1.0
        assert a.data.base.tolist() == [0.0, 0.0, 0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("value", [np.zeros(3), np.zeros((2, 1)), 1.0])
    def test_other_shapes_raise(self, value):
        [a] = ad.flat_params([(2,)])
        a.data = [5.0, 6.0]
        with pytest.raises(ShapeMismatch, match="Param.data"):
            a.data = value
        assert a.data.tolist() == [5.0, 6.0]


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
        assert list(loaded.state()) == list(params.state())
        for a, b in zip(params.state().values(), loaded.state().values()):
            np.testing.assert_array_equal(a, b)

    def test_17_significant_digits(self, tmp_path):
        params = ObsNodeParams(ObsNodeConfig(d_y=1, m=1, d_a=0),
                               np.random.default_rng(0))
        params.b_impute.data[0, 0] = 1.0 / 3.0
        path = tmp_path / "c.json"
        save_model(path, params, identity_stats(1))
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
