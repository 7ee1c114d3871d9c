import json

import numpy as np
import pytest

from obsnode import autodiff as ad
from obsnode import model as model_mod
from obsnode.autodiff import Tensor, grad_check
from obsnode.errors import ConfigError, DataError, ShapeMismatch
from obsnode.model import (EncodedState, History, ObsNodeConfig, ObsNodeParams,
                           emit, encode, forecast, load_model, param_shapes,
                           save_model, stack_field, triangular_rhs, window)
from obsnode.odeint import ControlPath, IntegrationConfig
from obsnode.train import _batch_loss
from support import observability_probe


def make_model(d_y=1, m=3, d_a=1, seed=0, randomize_output=False, **kw):
    cfg = ObsNodeConfig(d_y=d_y, m=m, d_a=d_a, phi_hidden_dim=8,
                        phi_layers=2, encoder_hidden_dim=8, **kw)
    params = ObsNodeParams(cfg, np.random.default_rng(seed))
    if randomize_output:
        rng = np.random.default_rng(seed + 1)
        for layers in params.phi:
            W, b = layers[-1]
            W.data = rng.normal(0, 0.3, size=W.data.shape)
            b.data = rng.normal(0, 0.1, size=b.data.shape)
    return cfg, params


def make_history(cfg, T=5, n=2, seed=0):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 1.0, size=T))
    y = rng.normal(size=(T, n, cfg.d_y))
    mask = (rng.uniform(size=(T, n, cfg.d_y)) > 0.3).astype(float)
    a = rng.normal(size=(T, n, cfg.d_a))
    return History(times, y, mask, a)


class TestConfig:
    def test_dimensions(self):
        cfg = ObsNodeConfig(d_y=2, m=3, d_a=1)
        assert cfg.d_z == 6
        assert cfg.encoder_input_dim == 6

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ObsNodeConfig(d_y=0, m=1, d_a=1)
        with pytest.raises(ConfigError):
            ObsNodeConfig(d_y=1, m=1, d_a=1, phi_activation="gelu")
        with pytest.raises(ConfigError):
            ObsNodeConfig(d_y=1, m=1, d_a=1, rollout_mode="open_loop")


class TestTriangularField:
    def test_chain_of_integrators_at_init(self):
        # zero-initialized output layers leave exactly dz_i = z_{i+1}, dz_m = 0
        cfg, params = make_model(d_y=2, m=3, d_a=1)
        z = Tensor(np.arange(6.0)[None])
        out = triangular_rhs(z, Tensor(np.array([[0.7]])), params)
        np.testing.assert_array_equal(out.data, [[2.0, 3.0, 4.0, 5.0, 0.0, 0.0]])

    def test_jacobian_is_block_triangular(self):
        # block i may depend on blocks 1..i+1 only; FD columns for later
        # blocks must vanish
        cfg, params = make_model(d_y=1, m=3, d_a=1, randomize_output=True)
        z0 = np.random.default_rng(3).normal(size=(1, 3))
        a = Tensor(np.array([[0.5]]))
        h = 1e-6
        J = np.zeros((3, 3))
        for j in range(3):
            zp, zm = z0.copy(), z0.copy()
            zp[0, j] += h
            zm[0, j] -= h
            J[:, j] = (triangular_rhs(Tensor(zp), a, params).data[0]
                       - triangular_rhs(Tensor(zm), a, params).data[0]) / (2 * h)
        assert abs(J[0, 2]) < 1e-8        # block 1 cannot see block 3
        assert abs(J[1, 0]) > 1e-3        # block 2 does see block 1
        assert abs(J[0, 1] - 1.0) < 1e-6  # phi_1 ignores block 2, drift is exact

    def test_batched_matches_single(self):
        # each unit alone, with its control as a (1, d_a) batch and as the
        # (d_a,) row of a single-trajectory control path
        cfg, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True)
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(3, 4))
        A = rng.normal(size=(3, 1))
        batch = triangular_rhs(Tensor(Z), Tensor(A), params).data
        for i in range(3):
            for a in (A[i:i + 1], A[i]):
                single = triangular_rhs(Tensor(Z[i:i + 1]), Tensor(a), params).data
                np.testing.assert_allclose(batch[i:i + 1], single, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        cfg, params = make_model(d_y=1, m=2, d_a=1)
        with pytest.raises(ValueError):
            triangular_rhs(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 1))), params)

    @pytest.mark.parametrize("shape", [(2, 1), (3, 2), (2,)])
    def test_control_that_does_not_broadcast(self, shape):
        cfg, params = make_model(d_y=1, m=2, d_a=1)
        with pytest.raises(ShapeMismatch, match="triangular_rhs"):
            triangular_rhs(Tensor(np.zeros((3, 2))), Tensor(np.zeros(shape)), params)


class TestEmitImpute:
    def test_emit_is_first_block(self):
        cfg, params = make_model(d_y=2, m=2)
        np.testing.assert_array_equal(emit(Tensor([[1.0, 2.0, 3.0, 4.0]]), cfg).data,
                                      [[1.0, 2.0]])

    def test_impute_fills_missing_entries(self, monkeypatch):
        # the cell sees y where it is observed and b_impute where it is not
        cfg, params = make_model(d_y=2, m=2)
        params.b_impute.data = np.array([[9.0, -9.0]])
        hist = History(np.array([0.0, 1.0]), np.array([[[1.0, 2.0]], [[0.0, 4.0]]]),
                       np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.zeros((2, 1, 1)))
        rows, step = [], model_mod._gru_step

        def record_row(x, *rest):
            rows.append(x.copy())
            return step(x, *rest)

        monkeypatch.setattr(model_mod, "_gru_step", record_row)
        encode(hist, params)
        np.testing.assert_array_equal([r[0, :2] for r in rows], [[1.0, -9.0], [9.0, 4.0]])

    def test_impute_gradient(self):
        cfg, params = make_model(d_y=2, m=2)
        rng = np.random.default_rng(1)
        for t in params.tensors():
            t.data = rng.normal(0.0, 0.5, size=t.data.shape)
        hist = make_history(cfg, T=4, n=3, seed=2)
        f = lambda: ad.tsum(ad.square(encode(hist, params).z))
        assert grad_check(f, params.b_impute) < 1e-8
        with ad.Tape() as tape:
            tape.backward(f())
        assert np.abs(params.b_impute.grad).min() > 1e-3

    def test_impute_gradient_is_zero_when_fully_observed(self):
        cfg, params = make_model(d_y=2, m=2)
        hist = make_history(cfg, T=4, n=3, seed=2)
        hist.mask[:] = 1.0
        with ad.Tape() as tape:
            tape.backward(ad.tsum(ad.square(encode(hist, params).z)))
        assert params.b_impute.grad.shape == (1, 2)
        assert (params.b_impute.grad == 0.0).all()


class TestEncode:
    def test_shape_and_time(self):
        cfg, params = make_model(d_y=2, m=2, d_a=1)
        hist = make_history(cfg, T=6, n=3)
        state = encode(hist, params)
        assert state.z.data.shape == (3, cfg.d_z)
        assert state.t == hist.times[-1]

    def test_deterministic(self):
        cfg, params = make_model(d_y=1, m=2, d_a=1)
        hist = make_history(cfg, T=4, n=2, seed=9)
        a = encode(hist, params).z.data
        b = encode(hist, params).z.data
        assert (a == b).all()

    def test_mask_controls_influence(self):
        # with every observation masked out, the y values must not matter
        cfg, params = make_model(d_y=1, m=2, d_a=1)
        hist = make_history(cfg, T=4, n=2, seed=9)
        hist.mask[:] = 0.0
        z1 = encode(hist, params).z.data.copy()
        hist.y[:] += 100.0
        z2 = encode(hist, params).z.data
        np.testing.assert_array_equal(z1, z2)

    def test_history_validation(self):
        with pytest.raises(DataError):
            History(np.array([1.0, 0.5]), np.zeros((2, 1, 1)),
                    np.ones((2, 1, 1)), np.zeros((2, 1, 1)))


class TestForecast:
    def setup_method(self):
        self.cfg, self.params = make_model(d_y=1, m=2, d_a=1)
        self.control = ControlPath(np.array([0.0]), np.array([[0.0]]))
        self.int_cfg = IntegrationConfig(method="rk4", step_size=0.25)

    def test_pure_integrator_chain_is_analytic(self):
        # at init dz1 = z2, dz2 = 0, so y(t) = z1 + z2 (t - t0)
        state = EncodedState(z=Tensor(np.array([[1.0, 0.5]])), t=2.0)
        preds = forecast(state, self.control, [3.0, 4.0], self.params, self.int_cfg)
        assert abs(preds[0].data[0, 0] - 1.5) < 1e-12
        assert abs(preds[1].data[0, 0] - 2.0) < 1e-12

    def test_gradient_through_encode_and_rollout(self):
        cfg, params = make_model(d_y=1, m=2, d_a=1, randomize_output=True)
        hist = make_history(cfg, T=3, n=2, seed=5)
        control = ControlPath(np.array([hist.times[-1]]), np.array([[0.2]]))
        int_cfg = IntegrationConfig(method="rk4", step_size=0.5)
        qts = [hist.times[-1] + 0.5, hist.times[-1] + 1.0]

        def loss_with(t, slot):
            old = slot()
            slot(t)
            try:
                state = encode(hist, params)
                preds = forecast(state, control, qts, params, int_cfg)
                return ad.tsum(ad.square(ad.concat(preds, axis=0)))
            finally:
                slot(old)

        def enc_slot(v=None):
            if v is None:
                return params.enc["Wh"]
            params.enc["Wh"] = v

        def phi_slot(v=None):
            if v is None:
                return params.phi[0][0][0]
            W, b = params.phi[0][0]
            params.phi[0][0] = (v, b)

        for slot in (enc_slot, phi_slot):
            x = Tensor(slot().data.copy())
            assert grad_check(lambda: loss_with(x, slot), x) < 1e-4

    def test_recursive_needs_history(self):
        cfg, params = make_model(d_y=1, m=2, d_a=1, rollout_mode="recursive")
        state = EncodedState(z=Tensor(np.zeros((1, 2))), t=0.0)
        with pytest.raises(ValueError):
            forecast(state, self.control, [1.0], params, self.int_cfg)

    def test_recursive_with_perfect_reencode_matches_long_horizon(self,
                                                                  monkeypatch):
        cfg_r, params = make_model(d_y=1, m=2, d_a=1, randomize_output=True,
                                   rollout_mode="recursive", recursive_chunk=1.0)
        z0 = np.array([[0.3, -0.2]])
        control = ControlPath(np.array([0.0]), np.array([[0.1]]))
        int_cfg = IntegrationConfig(method="rk4", step_size=0.05)
        qts = [0.5, 1.5, 2.5, 3.0]
        hist = History(np.array([0.0]), np.zeros((1, 1, 1)),
                       np.ones((1, 1, 1)), np.zeros((1, 1, 1)))

        from obsnode.odeint import integrate

        field, _ = stack_field(params)

        def perfect_encode(h, _params):
            # the exact state at the last history time, in place of the encoder
            t = float(h.times[-1])
            (zT,) = integrate(field, Tensor(z0.copy()), control, 0.0, t, int_cfg, [t])
            return EncodedState(z=zT, t=t)

        monkeypatch.setattr(model_mod, "encode", perfect_encode)
        rec = forecast(EncodedState(z=Tensor(z0.copy()), t=0.0), control, qts,
                       params, int_cfg, history=hist)
        monkeypatch.undo()

        cfg_l = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=8,
                              phi_layers=2, encoder_hidden_dim=8)
        params.cfg = cfg_l
        lng = forecast(EncodedState(z=Tensor(z0.copy()), t=0.0), control, qts,
                       params, int_cfg)
        for r, l in zip(rec, lng):
            np.testing.assert_allclose(r.data, l.data, rtol=0, atol=1e-9)

    def test_recursive_gradient_holds_pseudo_observations_constant(self, monkeypatch):
        # the tape treats each chunk's pseudo-observations as constants: its
        # gradient is the finite difference taken with them held at their
        # unperturbed values, and differs from the one that lets them move
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=3, phi_layers=1,
                            encoder_hidden_dim=3, rollout_mode="recursive",
                            recursive_chunk=0.7)
        rng = np.random.default_rng(3)
        params = ObsNodeParams(cfg, rng)
        params.load_state({k: rng.normal(0.0, 0.5, s)
                           for k, s in param_shapes(cfg)})
        hist = make_history(cfg, T=4, n=2, seed=3)
        int_cfg = IntegrationConfig(method="rk4", step_size=0.5)
        real, held, replay = History.extended, [], iter(())

        def extended(self, times, y, mask, a):
            # the first run records each chunk's pseudo-observations, later
            # runs reuse them
            y_held = next(replay, None)
            if y_held is None:
                held.append(y)
            return real(self, times, y if y_held is None else y_held, mask, a)

        def loss():
            nonlocal replay
            replay = iter(held[:])
            return _batch_loss(hist, hist.times[0], params, np.ones(1), int_cfg)

        free = max(grad_check(loss, t) for t in params.tensors())
        monkeypatch.setattr(History, "extended", extended)
        assert max(grad_check(loss, t) for t in params.tensors()) < 1e-8
        assert held and free > 1e-4


class TestObservabilityProbe:
    def test_integrator_chain_discrepancy(self):
        # states differing only in the hidden block diverge in output linearly
        cfg, params = make_model(d_y=1, m=2, d_a=1)
        control = ControlPath(np.array([0.0]), np.array([[0.0]]))
        pairs = [([0.0, 1.0], [0.0, 0.0]), ([1.0, 2.0], [1.0, 1.0])]
        d = observability_probe(params, control, pairs, horizon=2.0, n_samples=20)
        assert abs(d - 2.0) < 1e-10

    def test_close_pair_rejected(self):
        cfg, params = make_model(d_y=1, m=2, d_a=1)
        control = ControlPath(np.array([0.0]), np.array([[0.0]]))
        with pytest.raises(ValueError):
            observability_probe(params, control, [([0.0, 0.0], [0.0, 1e-6])],
                                horizon=1.0)


class TestModelCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        cfg, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True)
        hist = make_history(cfg, T=4, n=2, seed=11)
        control = ControlPath(np.array([hist.times[-1]]), np.array([[0.3]]))
        int_cfg = IntegrationConfig(step_size=0.5)
        qts = [hist.times[-1] + 1.0]

        before = forecast(encode(hist, params), control, qts, params, int_cfg)
        path = tmp_path / "model.json"
        save_model(path, params)
        params2, cfg2, stats = load_model(path)
        assert cfg2 == cfg
        assert stats is None
        after = forecast(encode(hist, params2), control, qts, params2, int_cfg)
        np.testing.assert_array_equal(before[0].data, after[0].data)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, params = make_model()
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        doc["tensors"] = [e for e in doc["tensors"] if e["name"] != "head.W"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="missing tensor 'head.W'"):
            load_model(path)


@pytest.mark.parametrize("key,value", [
    ("phi_layers", 10**30), ("m", 10**30), ("d_y", 10**30),
    ("encoder_hidden_dim", 10**12), ("phi_hidden_dim", 10**12),
    ("m", float("nan")), ("phi_layers", float("nan"))])
def test_huge_metadata_is_rejected_before_allocation(tmp_path, key, value):
    # the shapes the metadata implies are compared with the stored tensors
    # before any parameter is built, so none of these is allocated; a NaN
    # count cannot even be iterated
    _, params = make_model()
    path = tmp_path / "model.json"
    save_model(path, params)
    doc = json.loads(path.read_text())
    doc["metadata"]["config"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="checkpoint "):
        load_model(path)


def test_window_splits_at_the_decision_time():
    times = np.array([0.0, 1.0, 1.0 + 1e-10, 2.0, 3.0, 3.0 + 1e-10, 4.0])
    before, inside = window(times, 1.0, 3.0)
    assert before.tolist() == [True, True, True, False, False, False, False]
    assert inside.tolist() == [False, False, False, True, True, True, False]
    before, inside = window(times, 1.0)
    assert inside.tolist() == [False, False, False, True, True, True, True]
