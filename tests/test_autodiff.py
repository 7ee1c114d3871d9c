import numpy as np
import pytest

from obsnode import autodiff as ad
from obsnode.autodiff import Adam, Tape, Tensor, grad_check
from obsnode.errors import DataError, NumericError, ShapeMismatch


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

    def test_shape_mismatch_names_operation(self):
        with pytest.raises(ShapeMismatch) as e:
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        assert "add" in str(e.value)
        assert "(3,)" in str(e.value) and "(4,)" in str(e.value)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_scalar_broadcast(self):
        out = ad.hadamard(Tensor([1.0, 2.0, 3.0]), Tensor(2.0))
        np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])

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
        err = grad_check(lambda t: ad.tsum(ad.square(ad.add(t, t))), Tensor([1.5]))
        assert err < 1e-8

    def test_two_layer_network_matches_fd(self):
        f = mlp_loss([3, 5, 1], seed=7)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
        assert grad_check(f, x, h=1e-5) < 1e-5


class TestGradCheck:
    def test_quadratic_is_exact(self):
        err = grad_check(lambda x: ad.tsum(ad.square(x)), Tensor([3.0]), h=1e-5)
        assert err < 1e-8

    def test_constant_function(self):
        err = grad_check(lambda x: ad.tsum(Tensor([4.0])), Tensor([1.0, 2.0]))
        assert err == 0.0

    def test_composed_mlp(self):
        f = mlp_loss([4, 8, 8, 1], seed=3)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        assert grad_check(f, x) < 1e-5

    @pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid, ad.leaky_relu, ad.square,
                                    ad.tmean, ad.tsum],
                             ids=["tanh", "sigmoid", "leaky_relu", "square", "mean", "sum"])
    def test_unary_ops_against_fd(self, op):
        rng = np.random.default_rng(hash(op.__name__) % 2**32)
        for _ in range(5):
            x = Tensor(rng.normal(size=(3, 4)) + 0.3)  # offset keeps leaky_relu off its kink
            err = grad_check(lambda t: ad.tsum(ad.square(op(t))), x)
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

        assert grad_check(f, x) < 1e-6


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
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        named = [("w", Tensor(rng.normal(size=(3, 2)))), ("b", Tensor(rng.normal(size=(2,))))]
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(path, named, metadata={"note": "x"})
        arrays, meta = ad.load_checkpoint(path)
        assert meta == {"note": "x"}
        for name, t in named:
            np.testing.assert_array_equal(arrays[name], t.data)

    def test_17_significant_digits(self, tmp_path):
        v = 1.0 / 3.0
        path = tmp_path / "c.json"
        ad.save_checkpoint(path, [("x", Tensor([v]))])
        text = path.read_text()
        assert "0.33333333333333331" in text

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"format_version": 9, "tensors": []}')
        with pytest.raises(DataError):
            ad.load_checkpoint(path)


def test_gradients_match_fd_on_100_random_networks():
    """Acceptance-style sweep: 100 random small nets pass grad_check < 1e-5."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        widths = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))] + [1]
        f = mlp_loss(widths, seed=trial)
        x = Tensor(rng.normal(size=(2, widths[0])))
        worst = max(worst, grad_check(f, x))
    assert worst < 1e-5
