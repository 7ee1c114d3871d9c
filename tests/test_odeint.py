import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode.autodiff import Tape, Tensor, grad_check
from obsnode.errors import ConfigError, DataError, NumericError, ShapeMismatch
from obsnode.odeint import MAX_STEPS, ControlPath, IntegrationConfig, integrate
from support import convergence_order, value_at


def decay(a):
    return (lambda z: -z), (lambda zs: lambda i, g: -g)


def drive(a):
    """dz/dt = a: the control alone."""
    return ((lambda z: np.broadcast_to(a, z.shape).copy()),
            (lambda zs: lambda i, g: np.zeros_like(g)))


CONST_CONTROL = ControlPath(np.array([0.0]), np.array([[0.0]]))


class TestControlPath:
    def test_value_lookup(self):
        c = ControlPath(np.array([0.0, 1.0, 2.5]),
                        np.array([[1.0], [2.0], [3.0]]))
        assert value_at(c, 0.0)[0] == 1.0
        assert value_at(c, 0.99)[0] == 1.0
        assert value_at(c, 1.0)[0] == 2.0
        assert value_at(c, 10.0)[0] == 3.0
        # times before the first knot clamp to the first value
        assert value_at(c, -1.0)[0] == 1.0

    def test_nonincreasing_knots_rejected(self):
        with pytest.raises(DataError):
            ControlPath(np.array([0.0, 0.0]), np.zeros((2, 1)))

    def test_value_count_must_match(self):
        with pytest.raises(DataError):
            ControlPath(np.array([0.0, 1.0]), np.zeros((3, 1)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4), ordered=st.booleans())
    def test_refused_exactly_when_nonfinite_or_not_increasing(self, data, k, ordered):
        # the whole control-path rule: finite, strictly increasing knot
        # times and one finite value per knot, whichever API builds the path
        number = st.one_of(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                           st.sampled_from([np.nan, np.inf, -np.inf]))
        times = data.draw(st.lists(number, min_size=k, max_size=k), label="times")
        values = np.array(data.draw(st.lists(number, min_size=2 * k, max_size=2 * k),
                                    label="values")).reshape(k, 1, 2)
        if ordered:
            times.sort()
        valid = (np.isfinite(times).all() and np.isfinite(values).all()
                 and all(a < b for a, b in zip(times, times[1:])))
        if valid:
            ControlPath(times, values)
        else:
            with pytest.raises(DataError, match="^ControlPath: "):
                ControlPath(times, values)


class TestIntegrationConfig:
    def test_bad_step(self):
        with pytest.raises(ConfigError):
            IntegrationConfig(step_size=0.0)


class TestIntegrate:
    def test_exponential_decay_rk4(self):
        cfg = IntegrationConfig(step_size=0.05)
        (zT,) = integrate(decay, Tensor([1.0]), CONST_CONTROL, 0.0, cfg, [1.0], ())
        assert abs(zT.data[0] - np.exp(-1.0)) < 1e-7

    def test_query_at_t0_returns_initial_state(self):
        cfg = IntegrationConfig(step_size=0.1)
        z0, zT = integrate(decay, Tensor([2.0]), CONST_CONTROL, 0.0, cfg, [0.0, 1.0], ())
        assert z0.data[0] == 2.0

    def test_query_just_before_t0_snaps_to_t0(self):
        # no query is snapped onto t0 any more: one 1e-13 before t0 lies
        # outside the solve and raises like any earlier query
        cfg = IntegrationConfig(step_size=0.5)
        with pytest.raises(ValueError, match="not at or after t0=1.0"):
            integrate(decay, Tensor([2.0]), CONST_CONTROL, 1.0, cfg,
                      [1.0 - 1e-13, 1.0, 2.0], ())

    def test_piecewise_constant_control_is_exact(self):
        # dz/dt = a with a = 1 on [0,1) and a = -2 on [1,3]; z(3) = 1 - 4 = -3
        control = ControlPath(np.array([0.0, 1.0]), np.array([[1.0], [-2.0]]))
        cfg = IntegrationConfig(step_size=0.4)
        (zT,) = integrate(drive, Tensor([0.0]), control, 0.0, cfg, [3.0], ())
        assert abs(zT.data[0] - (-3.0)) < 1e-12

    def test_chained_segments_bit_identical(self):
        control = ControlPath(np.array([0.0, 1.0]), np.array([[0.5], [-0.25]]))
        field = lambda a: ((lambda z: z * a), (lambda zs: lambda i, g: g * a))
        cfg = IntegrationConfig(step_size=0.1)
        z1, z2 = integrate(field, Tensor([1.0]), control, 0.0, cfg, [1.0, 2.0], ())
        (z1b,) = integrate(field, Tensor([1.0]), control, 0.0, cfg, [1.0], ())
        (z2b,) = integrate(field, z1b, control, 1.0, cfg, [2.0], ())
        assert z1.data[0] == z1b.data[0]
        assert z2.data[0] == z2b.data[0]

    def test_query_outside_span_rejected(self):
        # a solve runs from t0 to its last query time, so only a query
        # before t0, or NaN, lies outside it
        cfg = IntegrationConfig(step_size=0.1)
        for query in (-0.5, np.nan):
            with pytest.raises(ValueError, match="not at or after t0=0.0"):
                integrate(decay, Tensor([1.0]), CONST_CONTROL, 0.0, cfg, [0.5, query], ())

    def test_max_steps_guard(self):
        # about 5e6 steps: the guard counts them before any step edge is made,
        # and the times and step ask for that work, so it is a DataError; a
        # count of 4e300 prints in six significant digits
        cfg = IntegrationConfig(step_size=2e-7)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=rf"^integrate: 5e\+06 steps exceed "
                                                f"MAX_STEPS={MAX_STEPS}$"):
                integrate(decay, Tensor([1.0]), CONST_CONTROL, 0.0, cfg, [0.5, 1.0], ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"peak {peak} B"
        with pytest.raises(DataError, match=r"^integrate: 4e\+300 steps exceed"):
            integrate(decay, Tensor([1.0]), CONST_CONTROL, 0.0,
                      IntegrationConfig(step_size=2.5e-301), [1.0], ())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blowup_raises(self):
        # dz/dt = z^2 from z0 = 2 escapes in finite time; rk4 overflows
        field = lambda a: ((lambda z: z * z), (lambda zs: lambda i, g: g * 2.0 * zs[i]))
        cfg = IntegrationConfig(step_size=0.1)
        with pytest.raises(NumericError):
            integrate(field, Tensor([2.0]), CONST_CONTROL, 0.0, cfg, [50.0], ())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_state_gradient_raises_at_its_step(self):
        # a finite forward pass whose VJP overflows: the node of the step
        # where the state gradient first turns non-finite names its end time
        field = lambda a: ((lambda z: -z), (lambda zs: lambda i, g: g * 1e300))
        cfg = IntegrationConfig(step_size=0.5)
        z0 = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            (zT,) = integrate(field, z0, CONST_CONTROL, 0.0, cfg, [2.0], ())
            assert np.isfinite(zT.data).all()
            with pytest.raises(NumericError,
                               match="^integrate: the state gradient at t=2.0: "):
                tape.backward(ad.tsum(zT))

    def test_field_of_another_shape_is_a_shape_mismatch(self):
        # a control of 3 rows would broadcast a single state to 3 units
        field = lambda a: ((lambda z: z + a), (lambda zs: lambda i, g: g))
        control = ControlPath(np.array([0.0]), np.ones((1, 3, 1)))
        cfg = IntegrationConfig(step_size=0.5)
        with pytest.raises(ShapeMismatch, match="integrate"):
            integrate(field, Tensor(np.zeros((1, 1))), control, 0.0, cfg, [1.0], ())

    def test_batched_state(self):
        cfg = IntegrationConfig(step_size=0.05)
        z0 = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        (zT,) = integrate(decay, z0, CONST_CONTROL, 0.0, cfg, [1.0], ())
        np.testing.assert_allclose(zT.data, z0.data * np.exp(-1.0), rtol=1e-7)


class TestConvergenceOrder:
    def test_rk4_is_fourth_order(self):
        cfg = IntegrationConfig(step_size=0.25)
        p = convergence_order(decay, [1.0], CONST_CONTROL, 0.0, 1.0, cfg,
                              reference=[np.exp(-1.0)])
        assert abs(p - 4.0) < 0.2

    def test_inconclusive_when_exact(self):
        cfg = IntegrationConfig(step_size=0.5)
        control = ControlPath(np.array([0.0]), np.array([[1.0]]))
        assert convergence_order(drive, [0.0], control, 0.0, 1.0, cfg,
                                 reference=[1.0]) is None


class TestAdjoint:
    def test_gradient_wrt_initial_state(self):
        # z(1) = z0 e^{-1}, so d z(1)/d z0 = e^{-1}
        cfg = IntegrationConfig(step_size=0.02)
        z0 = Tensor([1.3], requires_grad=True)
        with Tape() as tape:
            (zT,) = integrate(decay, z0, CONST_CONTROL, 0.0, cfg, [1.0], ())
            tape.backward(ad.tsum(zT))
        assert abs(z0.grad[0] - np.exp(-1.0)) < 1e-6

    def test_gradient_wrt_field_parameter(self):
        # dz/dt = theta z with z0 = 1: z(1) = e^theta, d/dtheta = e^theta
        cfg = IntegrationConfig(step_size=0.02)
        theta = Tensor([0.4], requires_grad=True)

        def field(a):
            def rebuild(zs):
                def vjp(i, g):
                    ad._accum(theta, g * zs[i])
                    return g * theta.data
                return vjp
            return (lambda z: z * theta.data), rebuild

        with Tape() as tape:
            (zT,) = integrate(field, Tensor([1.0]), CONST_CONTROL, 0.0, cfg, [1.0], [theta])
            tape.backward(ad.tsum(zT))
        assert abs(theta.grad[0] - np.exp(0.4)) < 1e-6

    def test_adjoint_matches_finite_differences(self):
        cfg = IntegrationConfig(step_size=0.1)
        control = ControlPath(np.array([0.0, 0.7]), np.array([[0.3], [-0.6]]))

        def field(a):
            def rebuild(zs):
                y = np.tanh(zs)
                return lambda i, g: g * (1.0 - y[i] * y[i])
            return (lambda z: np.tanh(z) + a), rebuild

        def f(z0):
            (zT,) = integrate(field, z0, control, 0.0, cfg, [1.5], ())
            return ad.tsum(ad.square(zT))

        z0 = Tensor(np.array([0.2, -0.5, 1.0]))
        err = grad_check(lambda: f(z0), z0)
        assert err < 1e-6
