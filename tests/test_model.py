import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode import model as model_mod
from obsnode import odeint
from obsnode.autodiff import Tensor, grad_check
from obsnode.errors import ConfigError, DataError, ShapeMismatch
from obsnode.model import (EncodedState, History, NormStats, ObsNodeConfig, ObsNodeParams,
                           check_size, emit, encode, forecast, load_model,
                           param_count, param_shapes, save_model, stack_field,
                           triangular_rhs, window)
from obsnode.odeint import ControlPath, IntegrationConfig
from support import (PerBlockParams, PerTensorAdam, checkpoint_grads, observability_probe,
                     padding, random_params, value_at)


def make_model(d_y=1, m=3, d_a=1, seed=0, randomize_output=False, **kw):
    cfg = ObsNodeConfig(d_y=d_y, m=m, d_a=d_a, phi_hidden_dim=8,
                        phi_layers=2, encoder_hidden_dim=8, **kw)
    params = ObsNodeParams(cfg, np.random.default_rng(seed))
    if randomize_output:
        # the blocks' output layers, stored stacked over the blocks
        rng = np.random.default_rng(seed + 1)
        W, b = params.phi[-2:]
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
        seen, cell = [], model_mod._gru_states

        def record_inputs(x, *rest):
            seen.append(x.copy())
            return cell(x, *rest)

        monkeypatch.setattr(model_mod, "_gru_states", record_inputs)
        encode(hist, params)
        np.testing.assert_array_equal(seen[0][:, 0, :2], [[1.0, -9.0], [9.0, 4.0]])

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

        def loss():
            state = encode(hist, params)
            preds = forecast(state, control, qts, params, int_cfg)
            return ad.tsum(ad.square(ad.concat(preds, axis=0)))

        # the stored encoder input weights and first-layer z rows, their
        # padding included
        for t in (params.enc[0], params.phi[0]):
            assert grad_check(loss, t) < 1e-4

    def test_control_bound_once_per_knot_segment(self, monkeypatch):
        # a forecast across three knots binds the field once per segment,
        # and its states and gradients equal, bit for bit, those of binding
        # the control on every step
        def per_step_integrate(field, z0, control, t0, t1, cfg, query_times, params=()):
            edges = odeint._step_boundaries(t0, t1, control, query_times, cfg)
            z, states = z0, {edges[0]: z0}
            for lo, hi in zip(edges[:-1], edges[1:]):
                z = odeint._step(field(value_at(control, lo)), z, hi - lo,
                                 cfg.method == "rk4", params, hi)
                states[hi] = z
            return [states[q] for q in query_times]

        binds = []

        def counted_stack_field(params):
            field, tensors = stack_field(params)
            return (lambda a: binds.append(a) or field(a)), tensors

        rng = np.random.default_rng(2)
        control = ControlPath(np.array([-1.0, 0.5, 1.2, 2.0]), rng.normal(size=(4, 2, 1)))
        int_cfg = IntegrationConfig(method="rk4", step_size=0.2)
        z_init = rng.normal(size=(2, 3))
        runs = []
        for run in ("segment", "step"):
            _, params = make_model(d_y=1, m=3, d_a=1, randomize_output=True)
            z0 = Tensor(z_init.copy(), requires_grad=True)
            with monkeypatch.context() as mp:
                if run == "segment":
                    mp.setattr(model_mod, "stack_field", counted_stack_field)
                else:
                    mp.setattr(model_mod, "integrate", per_step_integrate)
                with ad.Tape() as tape:
                    preds = forecast(EncodedState(z=z0, t=0.0), control, [0.3, 1.0, 3.0],
                                     params, int_cfg)
                    tape.backward(ad.tsum(ad.concat(preds, axis=0)))
            runs.append([p.data for p in preds] + [z0.grad]
                        + [t.grad for t in params.tensors() if t.grad is not None])
        assert len(runs[0]) == len(runs[1]) > 4
        for x, y in zip(*runs):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(np.stack(binds), control.knot_values)

    def test_predictions_follow_the_query_order(self):
        # y(t) = z1 + z2 (t - t0) on the pure integrator chain
        state = EncodedState(z=Tensor(np.array([[1.0, 0.5]])), t=0.0)
        preds = forecast(state, self.control, [3.0, 1.0, 2.0], self.params, self.int_cfg)
        assert [float(p.data[0, 0]) for p in preds] == [2.5, 1.5, 2.0]
        assert forecast(state, self.control, [], self.params, self.int_cfg) == []

    def test_unsorted_repeated_queries_match_the_sorted_call_bitwise(self):
        # one prediction per query, in the caller's order, each equal bit for
        # bit to the sorted call's; so are the gradients of a loss that
        # weighs each prediction by its query time
        rng = np.random.default_rng(4)
        control = ControlPath(np.array([0.0, 0.8, 1.9]), rng.normal(size=(3, 2, 1)))
        int_cfg = IntegrationConfig(method="rk4", step_size=0.3)
        z_init = rng.normal(size=(2, 3))
        unsorted = [2.0, 0.5, 2.0, 1.3, 0.5, 3.0]
        runs = []
        for qts in (unsorted, sorted(unsorted)):
            _, params = make_model(d_y=1, m=3, d_a=1, randomize_output=True)
            z0 = Tensor(z_init.copy(), requires_grad=True)
            with ad.Tape() as tape:
                preds = forecast(EncodedState(z=z0, t=0.0), control, qts, params, int_cfg)
                weights = np.repeat(np.array(qts)[:, None, None], 2, axis=1)
                tape.backward(ad.tsum(ad.hadamard(ad.concat(preds, axis=0),
                                                  Tensor(weights.reshape(-1, 1)))))
            runs.append(({q: p.data for q, p in zip(qts, preds)}, [p.data for p in preds],
                         [z0.grad] + [t.grad for t in params.tensors()]))
        (by_time, values, grads), (by_time_sorted, _, grads_sorted) = runs
        assert len(values) == len(unsorted)
        for q, v in zip(unsorted, values):
            np.testing.assert_array_equal(v, by_time_sorted[q])
        for g, h in zip(grads, grads_sorted):
            np.testing.assert_array_equal(g, h)


class TestTapeFreeInference:
    """The bound field keeps backward state only while a tape records, and
    tiles its biases once per :func:`stack_field` call."""

    def setup_method(self):
        self.control = ControlPath(np.array([0.0, 0.7]),
                                   np.random.default_rng(3).normal(size=(2, 3, 1)))
        self.int_cfg = IntegrationConfig(method="rk4", step_size=0.25)
        self.z_init = np.random.default_rng(4).normal(size=(3, 4))
        self.qts = [0.5, 1.5]

    def run(self, params):
        state = EncodedState(z=Tensor(self.z_init.copy()), t=0.0)
        return forecast(state, self.control, self.qts, params, self.int_cfg)

    @pytest.mark.parametrize("act", sorted(ad.ACTIVATIONS))
    def test_untaped_forecast_equals_the_taped_one_bitwise(self, act):
        _, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True,
                               phi_activation=act)
        untaped = self.run(params)
        with ad.Tape() as tape:
            taped = self.run(params)
        assert len(tape) > 0
        for p, q in zip(untaped, taped):
            assert p.data.tobytes() == q.data.tobytes()

    @pytest.mark.parametrize("act", sorted(ad.ACTIVATIONS))
    def test_field_built_outside_a_tape_steps_inside_one(self, act):
        # the field decides at each call whether to keep backward state, so
        # one bound before the tape still gives the state's and the stored
        # weights' gradients, equal to those of a field bound under it
        _, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True,
                               phi_activation=act)
        outside = stack_field(params)
        assert outside[1] is params.phi
        grads = []
        for bound_under_the_tape in (False, True):
            z0 = Tensor(self.z_init.copy(), requires_grad=True)
            for t in params.phi:
                t.zero_grad()
            with ad.Tape() as tape:
                field, tensors = stack_field(params) if bound_under_the_tape else outside
                states = odeint.integrate(field, z0, self.control, 0.0, 1.5, self.int_cfg,
                                          self.qts, tensors)
                tape.backward(ad.tsum(ad.concat(states, axis=1)))
            grads.append([z0.grad] + [t.grad for t in params.phi])
        assert grads[0][0] is not None and np.isfinite(grads[0][0]).all()
        for g, h in zip(*grads):
            assert g.tobytes() == h.tobytes()

    def test_in_place_update_reaches_the_next_forecast(self, tmp_path):
        # Adam updates the parameters in place between forecasts, the
        # padding of the stored layout excepted; each forecast tiles the
        # biases anew, so it equals a fresh model's
        _, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True)
        self.run(params)
        rng = np.random.default_rng(5)
        for t in params.tensors():
            t.data -= 0.1 * rng.normal(size=t.data.shape)
        params.phi[0].data[padding(params)] = 0.0
        updated = self.run(params)
        save_model(tmp_path / "model.json", params)
        fresh = self.run(load_model(tmp_path / "model.json")[0])
        for p, q in zip(updated, fresh):
            assert p.data.tobytes() == q.data.tobytes()


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

    def test_checkpoint_with_the_long_horizon_rollout_keys_loads(self, tmp_path):
        # checkpoints written while the model had a recursive rollout mode
        # name it and its chunk in the metadata config; the long-horizon
        # defaults load and forecast as before, bit for bit
        cfg, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True)
        hist = make_history(cfg, T=4, n=2, seed=11)
        control = ControlPath(np.array([hist.times[-1]]), np.array([[0.3]]))
        qts = [hist.times[-1] + 0.5, hist.times[-1] + 1.0]
        int_cfg = IntegrationConfig(step_size=0.25)
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        doc["metadata"]["config"].update(rollout_mode="long_horizon", recursive_chunk=1.0)
        path.write_text(json.dumps(doc))
        params2, cfg2, _ = load_model(path)
        assert cfg2 == cfg
        for p, q in zip(forecast(encode(hist, params), control, qts, params, int_cfg),
                        forecast(encode(hist, params2), control, qts, params2, int_cfg)):
            np.testing.assert_array_equal(p.data, q.data)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, params = make_model()
        path = tmp_path / "model.json"
        save_model(path, params)
        doc = json.loads(path.read_text())
        doc["tensors"] = [e for e in doc["tensors"] if e["name"] != "head.W"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="missing tensor 'head.W'"):
            load_model(path)


class TestStoredLayout:
    """The one parameter buffer: what writes into it, what reads it, and
    the checkpoint entries it keeps."""

    def forecast_of(self, params):
        rng = np.random.default_rng(8)
        control = ControlPath(np.array([0.0, 0.6]), rng.normal(size=(2, 3, 1)))
        state = EncodedState(z=Tensor(rng.normal(size=(3, params.cfg.d_z))), t=0.0)
        preds = forecast(state, control, [0.5, 1.5], params, IntegrationConfig(step_size=0.25))
        return np.stack([p.data for p in preds])

    def test_assignment_reaches_the_field_and_adam(self):
        # a same-shape assignment to a stored tensor's data writes into the
        # buffer: the next forecast reads it, as a model loaded with the
        # same checkpoint entries does, and Adam steps from it
        _, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True)
        opt = ad.Adam(params.tensors(), parts=params.parts)
        before = self.forecast_of(params)
        W1 = params.phi[3]
        new = np.random.default_rng(1).normal(size=W1.data.shape)
        W1.data = new
        after = self.forecast_of(params)
        fresh = ObsNodeParams(params.cfg, np.random.default_rng(9))
        fresh.load_state(params.state())
        assert after.tobytes() == self.forecast_of(fresh).tobytes() != before.tobytes()
        W1.grad = np.ones(W1.data.shape)
        opt.step()
        np.testing.assert_allclose(W1.data, new - 1e-3 / (1 + 1e-8), rtol=0, atol=1e-15)

    def test_wrong_shape_assignment_raises(self):
        _, params = make_model(d_y=2, m=2, d_a=1)
        kept = params.flat.copy()
        for t, value in ((params.head_W, np.zeros((1, 1))), (params.phi[0], np.zeros(3)),
                         (params.enc[0], params.enc[0].data.T)):
            with pytest.raises(ShapeMismatch, match="Param.data"):
                t.data = value
        assert params.flat.tobytes() == kept.tobytes()

    def test_save_load_save_gives_the_same_bytes(self, tmp_path):
        cfg = ObsNodeConfig(d_y=2, m=3, d_a=2, phi_hidden_dim=4, phi_layers=2,
                            encoder_hidden_dim=3)
        save_model(tmp_path / "a.json", random_params(cfg, 4), NormStats([0.5, 1.0], [2.0, 3.0]))
        params, _, stats = load_model(tmp_path / "a.json")
        save_model(tmp_path / "b.json", params, stats)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_load_state_rejects_a_wrong_shape(self):
        _, params = make_model(d_y=2, m=2, d_a=1)
        kept = params.flat.copy()
        state = {name: arr.copy() for name, arr in params.state().items()}
        state["phi2.W0"] = np.zeros((4, 8))
        with pytest.raises(DataError, match=r"'phi2.W0' has shape \(4, 8\), expected \(5, 8\)"):
            params.load_state(state)
        assert params.flat.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("max_grad_norm", [None, 1.0])
    def test_clipping_keeps_the_per_entry_bits(self, max_grad_norm):
        # Adam over the buffer, the padding's gradients nonzero, against the
        # per-tensor update of the checkpoint entries: the clip norm sums
        # one float per entry, in param_shapes order, so the entries'
        # values agree bit for bit, and the padding stays +0.0
        cfg = ObsNodeConfig(d_y=2, m=3, d_a=2, phi_hidden_dim=5, phi_layers=2,
                            encoder_hidden_dim=4)
        params = random_params(cfg, 2)
        ref = PerBlockParams(params)
        opt = ad.Adam(params.tensors(), lr=0.01, parts=params.parts)
        ref_opt = PerTensorAdam(ref.tensors(), lr=0.01)
        rng = np.random.default_rng(3)
        for _ in range(6):
            for t in params.tensors():
                t.grad = rng.normal(size=t.data.shape)
            for name, g in checkpoint_grads(params).items():
                ref.by_name[name].grad = g
            opt.step(max_grad_norm=max_grad_norm)
            ref_opt.step(max_grad_norm=max_grad_norm)
        for name, arr in params.state().items():
            assert arr.tobytes() == ref.by_name[name].data.tobytes(), name
        pad = params.phi[0].data[padding(params)]
        assert pad.size and (pad == 0.0).all() and not np.signbit(pad).any()


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


@pytest.mark.parametrize("part", ["tensor", "norm_stats"])
def test_int_past_the_float_range_is_data_error(tmp_path, part):
    # a 400-digit integer converts to no float64 (OverflowError, not
    # ValueError): the checkpoint is rejected by name
    _, params = make_model()
    path = tmp_path / "model.json"
    save_model(path, params, norm_stats=NormStats(mean=[0.0], std=[1.0]))
    doc = json.loads(path.read_text())
    if part == "tensor":
        doc["tensors"][0]["values"][0] = 10 ** 400
    else:
        doc["metadata"]["norm_stats"]["std"][0] = 10 ** 400
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"checkpoint {re.escape(str(path))}: "):
        load_model(path)


def test_checkpoint_past_max_params_is_rejected_before_allocation(tmp_path, monkeypatch):
    # a checkpoint whose metadata and tensors agree but whose size passes
    # the bound is a DataError, raised before any parameter is made
    _, params = make_model()
    save_model(tmp_path / "model.json", params)
    monkeypatch.setattr(model_mod, "MAX_PARAMS", 100)
    monkeypatch.setattr(model_mod, "ObsNodeParams", None)
    with pytest.raises(DataError, match="MAX_PARAMS=100"):
        load_model(tmp_path / "model.json")


@settings(max_examples=200, deadline=None)
@given(d_y=st.integers(1, 4), m=st.integers(1, 4), d_a=st.integers(0, 3),
       hidden=st.integers(1, 6), layers=st.integers(0, 4), enc=st.integers(1, 6))
def test_param_count_is_the_sum_over_the_shapes(d_y, m, d_a, hidden, layers, enc):
    cfg = ObsNodeConfig(d_y, m, d_a, hidden, layers, encoder_hidden_dim=enc)
    assert param_count(cfg) == sum(r * c for _, (r, c) in param_shapes(cfg))


def test_many_narrow_layers_are_rejected_without_walking_the_shapes(monkeypatch):
    # 10**18 width-1 layers: the closed-form count rejects them at once,
    # where a sum over param_shapes took seconds to pass MAX_PARAMS
    def walked(cfg):
        raise AssertionError("param_shapes walked")

    monkeypatch.setattr(model_mod, "param_shapes", walked)
    cfg = ObsNodeConfig(d_y=1, m=1, d_a=1, phi_hidden_dim=1, phi_layers=10**18,
                        encoder_hidden_dim=1)
    with pytest.raises(ConfigError, match="MAX_PARAMS"):
        check_size(cfg)


def test_window_splits_at_the_decision_time():
    times = np.array([0.0, 1.0, 1.0 + 1e-10, 2.0, 3.0, 3.0 + 1e-10, 4.0])
    before, inside = window(times, 1.0, 3.0)
    assert before.tolist() == [True, True, True, False, False, False, False]
    assert inside.tolist() == [False, False, False, True, True, True, False]
    before, inside = window(times, 1.0)
    assert inside.tolist() == [False, False, False, True, True, True, True]
