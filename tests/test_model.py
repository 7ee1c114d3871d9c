import contextlib
import json
import math
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obsnode import autodiff as ad
from obsnode import model as model_mod
from obsnode import odeint
from obsnode.autodiff import Tensor, grad_check
from obsnode.errors import ConfigError, DataError, NumericError, ShapeMismatch
from obsnode.evaluate import raw_forecasts
from obsnode.model import (EncodedState, History, NormStats, ObsNodeConfig, ObsNodeParams,
                           check_size, decision_split, emissions, emit, encode,
                           encode_prefixes, forecast, load_model, param_count, param_shapes,
                           rollouts, save_model, stack_field, triangular_rhs)
from obsnode.odeint import ControlPath, IntegrationConfig
from obsnode.simulate import read_dataset
from obsnode.train import TrainConfig, _decisions
from support import (PerBlockParams, PerTensorAdam, checkpoint_grads, identity_stats,
                     mask_window, observability_probe, padding, random_params,
                     reencoded_rollout, value_at)


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


def breaks_the_rule(times, y, mask, a):
    """The record rule, entry by entry, on one unit's lists: times (T,), y
    and mask (T, d_y), a (T, d_a)."""
    def finite(values):
        return all(math.isfinite(v) for v in values)
    return (not times or not finite(times) or any(t1 <= t0 for t0, t1 in zip(times, times[1:]))
            or any(m not in (0.0, 1.0) or (m == 1.0 and not math.isfinite(v))
                   for ys, ms in zip(y, mask) for v, m in zip(ys, ms))
            or not all(finite(row) for row in a))


@st.composite
def records(draw):
    """(times, y, mask, a) of a record of up to 4 times, 3 units and 2
    outcomes and treatments, partly observed, with up to 3 changes that
    may break the rule: a bad time, mask entry, observed outcome or
    treatment, or a non-finite placeholder, which keeps it."""
    T, n, d_y, d_a = (draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 3), (1, 2), (0, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.cumsum(rng.uniform(0.1, 2.0, T)) - 1.0
    y, a = rng.normal(size=(T, n, d_y)), rng.normal(size=(T, n, d_a))
    mask = (rng.uniform(size=(T, n, d_y)) < 0.7) * 1.0
    mask[rng.uniform(size=mask.shape) < 0.1] = -0.0
    bad = st.sampled_from([np.nan, np.inf, -np.inf])
    for _ in range(draw(st.integers(0, 3))):
        at = tuple(draw(st.integers(0, k - 1)) for k in (T, n, d_y))
        change = draw(st.sampled_from(["time", "mask", "outcome", "placeholder", "treatment"]))
        if change == "time":
            times[at[0]] = draw(st.sampled_from([np.nan, np.inf, times[at[0] - 1], -5.0]))
        elif change == "mask":
            mask[at] = draw(st.sampled_from([0.5, 2.0, -1.0, np.nan]))
        elif change in ("outcome", "placeholder"):
            mask[at], y[at] = float(change == "outcome"), draw(bad)
        elif d_a:
            a[at[:2] + (draw(st.integers(0, d_a - 1)),)] = draw(bad)
    return times, y, mask, a


class TestRecordRule:
    @settings(max_examples=150, deadline=None)
    @given(records())
    def test_history_and_dataset_lines_hold_every_unit_to_one_rule(self, record):
        # a History is refused exactly when some unit's slice breaks the
        # rule, and read_dataset refuses the line of the first such unit
        times, y, mask, a = record
        units = [{"unit_id": 10 + i, "times": times.tolist(), "y": y[:, i].tolist(),
                  "mask": mask[:, i].tolist(), "a": a[:, i].tolist()} for i in range(y.shape[1])]
        broken = [breaks_the_rule(*(u[k] for k in ("times", "y", "mask", "a"))) for u in units]
        with tempfile.TemporaryDirectory() as tmp:
            with open(f"{tmp}/manifest.json", "w") as fh:
                json.dump({"format_version": 1,
                           "splits": {"test": [u["unit_id"] for u in units]}}, fh)
            with open(f"{tmp}/test.jsonl", "w") as fh:
                fh.writelines(json.dumps(u) + "\n" for u in units)
            if any(broken):
                first = broken.index(True)
                with pytest.raises(DataError, match=f"line {first + 1}: .*'unit {10 + first}: "):
                    read_dataset(tmp)
                with pytest.raises(DataError, match="^History: "):
                    History(times, y, mask, a)
                return
            read = read_dataset(tmp)[0]["test"]
        hist = History(times, y, mask, a)
        unobserved = mask == 0.0
        assert (hist.y[unobserved] == 0.0).all() and not np.signbit(hist.y[unobserved]).any()
        assert hist.y[~unobserved].tobytes() == y[~unobserved].tobytes()
        for i, tr in enumerate(read):
            assert tr.y.tobytes() == np.ascontiguousarray(hist.y[:, i]).tobytes()

    @pytest.mark.parametrize("field,shape", [
        ("y", (3, 2)), ("y", (2, 2, 1)), ("mask", (3, 2, 2)), ("a", (3, 1, 1)),
        ("a", (3, 2))], ids=["y_per_unit", "y_row_short", "mask_wide", "a_one_unit", "a_2d"])
    def test_history_refuses_arrays_of_other_shapes(self, field, shape):
        arrays = {"y": np.zeros((3, 2, 1)), "mask": np.ones((3, 2, 1)), "a": np.zeros((3, 2, 1)),
                  field: np.zeros(shape)}
        with pytest.raises(DataError, match=r"^History: with T=3, .*\(T, n, d_y\)"):
            History(np.arange(3.0), **arrays)


class TestUntapedEncoder:
    """An untaped :func:`encode_prefixes` steps through two rows and copies
    out the states it returns; a taped one keeps the whole history."""

    @staticmethod
    def both(params, hist, lengths):
        """Each pass's states (n, d_z) as bytes, or the NumericError it raised."""
        out = []
        for taped in (False, True):
            with ad.Tape() if taped else contextlib.nullcontext():
                try:
                    out.append([s.z.data.tobytes() for s in encode_prefixes(hist, params,
                                                                            lengths)])
                except NumericError as e:
                    out.append(e)
        return out

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), T=st.integers(1, 9), d_y=st.integers(1, 2),
           seed=st.integers(0, 2**16), picks=st.lists(st.integers(0, 8), max_size=5))
    @example(n=3, T=6, d_y=1, seed=0, picks=[1, 3])
    def test_untaped_states_equal_the_taped_ones_bitwise(self, n, T, d_y, seed, picks):
        # any lengths in 1..T, repeats and T itself among them
        cfg = ObsNodeConfig(d_y=d_y, m=2, d_a=1, phi_hidden_dim=3, encoder_hidden_dim=5)
        params = random_params(cfg, seed, scale=0.7)
        hist = make_history(cfg, T=T, n=n, seed=seed)
        lengths = [p % T + 1 for p in picks]
        lengths += [T, lengths[0] if lengths else T]
        untaped, taped = self.both(params, hist, lengths)
        assert len(untaped) == len(lengths) and untaped == taped

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, 4), value=st.sampled_from([np.nan, np.inf, -np.inf]),
           T=st.integers(1, 6), seed=st.integers(0, 2**16), data=st.data())
    def test_nonfinite_weights_raise_on_both_paths(self, which, value, T, seed, data):
        # a NaN anywhere makes a state NaN, and so does an inf in U or Uh,
        # which meets the zero first state; one in b_impute makes the cell
        # inputs non-finite: both passes raise. An inf in W or b may
        # saturate a gate instead; then both raise or neither does, and the
        # states agree
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=3, encoder_hidden_dim=4)
        params = random_params(cfg, seed, scale=0.7)
        tensor = (*params.enc, params.b_impute)[which]
        ix = data.draw(st.tuples(*(st.integers(0, k - 1) for k in tensor.data.shape)),
                       label="entry")
        tensor.data[ix] = value
        hist = make_history(cfg, T=T, n=2, seed=seed)
        with np.errstate(all="ignore"):
            untaped, taped = self.both(params, hist, [T, 1])
        if np.isnan(value) or which in (1, 2, 4):
            assert isinstance(untaped, NumericError) and isinstance(taped, NumericError)
        if isinstance(untaped, NumericError) or isinstance(taped, NumericError):
            for e in (untaped, taped):
                assert isinstance(e, NumericError) and "encode_prefixes" in str(e)
        else:
            assert untaped == taped

    def test_untaped_pass_keeps_no_state_history(self):
        # one (T + 1, n, H) history would be 2 MB; the untaped pass's peak
        # is a step's gate temporaries, the cell inputs and the two rows
        T, n, H = 80, 50, 64
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=3, encoder_hidden_dim=H)
        params = random_params(cfg, 3, scale=0.5)
        hist = make_history(cfg, T=T, n=n, seed=4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            encode_prefixes(hist, params, [T, 3, 3])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * (T + 1) * n * H * 8


class TestForecast:
    def setup_method(self):
        self.cfg, self.params = make_model(d_y=1, m=2, d_a=1)
        self.control = ControlPath(np.array([0.0]), np.array([[0.0]]))
        self.int_cfg = IntegrationConfig(step_size=0.25)

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
        int_cfg = IntegrationConfig(step_size=0.5)
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
        def per_step_integrate(field, z0, control, t0, cfg, query_times, params):
            edges = odeint._step_boundaries(t0, control, query_times, cfg)
            z, states = z0, {edges[0]: z0}
            for lo, hi in zip(edges[:-1], edges[1:]):
                z = odeint._step(field(value_at(control, lo)), z, hi - lo, params, hi)
                states[hi] = z
            return [states[q] for q in query_times]

        binds = []

        def counted_stack_field(params):
            field, tensors = stack_field(params)
            return (lambda a: binds.append(a) or field(a)), tensors

        rng = np.random.default_rng(2)
        control = ControlPath(np.array([-1.0, 0.5, 1.2, 2.0]), rng.normal(size=(4, 2, 1)))
        int_cfg = IntegrationConfig(step_size=0.2)
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
        int_cfg = IntegrationConfig(step_size=0.3)
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
    """The bound field's forward pass is the same taped or not and keeps no
    backward state, and the field tiles its biases once per
    :func:`stack_field` call."""

    def setup_method(self):
        self.control = ControlPath(np.array([0.0, 0.7]),
                                   np.random.default_rng(3).normal(size=(2, 3, 1)))
        self.int_cfg = IntegrationConfig(step_size=0.25)
        self.z_init = np.random.default_rng(4).normal(size=(3, 4))
        self.qts = [0.5, 1.5]

    def run(self, params):
        state = EncodedState(z=Tensor(self.z_init.copy()), t=0.0)
        return forecast(state, self.control, self.qts, params, self.int_cfg)

    def test_untaped_forecast_equals_the_taped_one_bitwise(self):
        _, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True)
        untaped = self.run(params)
        with ad.Tape() as tape:
            taped = self.run(params)
        assert len(tape) > 0
        for p, q in zip(untaped, taped):
            assert p.data.tobytes() == q.data.tobytes()

    def test_field_built_outside_a_tape_steps_inside_one(self):
        # the field keeps no backward state, so one bound before the tape
        # still gives the state's and the stored weights' gradients, equal
        # to those of a field bound under it
        _, params = make_model(d_y=2, m=2, d_a=1, randomize_output=True)
        outside = stack_field(params)
        assert outside[1] is params.phi
        grads = []
        for bound_under_the_tape in (False, True):
            z0 = Tensor(self.z_init.copy(), requires_grad=True)
            for t in params.phi:
                t.zero_grad()
            with ad.Tape() as tape:
                field, tensors = stack_field(params) if bound_under_the_tape else outside
                states = odeint.integrate(field, z0, self.control, 0.0, self.int_cfg, self.qts,
                                          tensors)
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
        save_model(tmp_path / "model.json", params, identity_stats(2))
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
        save_model(path, params, NormStats([0.5, -1.0], [2.0, 3.0]))
        params2, cfg2, stats = load_model(path)
        assert cfg2 == cfg
        assert stats.mean.tolist() == [0.5, -1.0] and stats.std.tolist() == [2.0, 3.0]
        after = forecast(encode(hist, params2), control, qts, params2, int_cfg)
        np.testing.assert_array_equal(before[0].data, after[0].data)

    @pytest.mark.parametrize("key", ["norm_stats", "rollout_mode", "recursive_chunk"])
    def test_legacy_metadata_is_data_error(self, tmp_path, key):
        # every checkpoint carries its normalization, and its config names
        # only ObsNodeConfig's keys: the rollout mode and chunk of the
        # recursive model that is gone no longer load
        _, params = make_model(d_y=2, m=2, d_a=1)
        path = tmp_path / "model.json"
        save_model(path, params, identity_stats(2))
        doc = json.loads(path.read_text())
        if key == "norm_stats":
            del doc["metadata"]["norm_stats"]
        else:
            doc["metadata"]["config"][key] = "long_horizon" if key == "rollout_mode" else 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"checkpoint {re.escape(str(path))}: .*{key}"):
            load_model(path)

    @pytest.mark.parametrize("name,message", [("foo", "tensor 'foo' is not a parameter"),
                                              ("phi1.W0", "tensor 'phi1.W0' appears twice")],
                             ids=["unknown", "repeated"])
    def test_tensor_the_metadata_does_not_describe_rejected(self, tmp_path, name, message):
        # an unknown tensor, or a second entry of a known one, is refused by
        # name, not ignored or loaded over the first
        cfg, params = make_model()
        path = tmp_path / "model.json"
        save_model(path, params, identity_stats(1))
        doc = json.loads(path.read_text())
        first = next(e for e in doc["tensors"] if e["name"] == "phi1.W0")
        doc["tensors"].append(dict(first, name=name, values=[0.5] * len(first["values"])))
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"checkpoint {re.escape(str(path))}: .*{message}"):
            load_model(path)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, params = make_model()
        path = tmp_path / "model.json"
        save_model(path, params, identity_stats(1))
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

    def test_entries_name_their_stored_tensors(self):
        # each checkpoint entry is the stored part its name says: the gates
        # in r, u, h order, and each block's first layer its z rows, then
        # its control rows
        cfg = ObsNodeConfig(d_y=2, m=2, d_a=1, phi_hidden_dim=3, phi_layers=1,
                            encoder_hidden_dim=4)
        params = random_params(cfg, 3)
        state = params.state()
        W, U, Uh, b = (t.data for t in params.enc)
        for j, gate in enumerate("ruh"):
            assert np.array_equal(state[f"enc.W{gate}"], W[j])
            assert np.array_equal(state[f"enc.U{gate}"], U[j] if j < 2 else Uh)
            assert np.array_equal(state[f"enc.b{gate}"], b[j])
        W0z, W0c, b0, W1, b1 = (t.data for t in params.phi)
        for i in range(cfg.m):
            assert np.array_equal(state[f"phi{i + 1}.W0"],
                                  np.concatenate([W0z[i, :(i + 1) * cfg.d_y], W0c[i]]))
            for name, stored in (("b0", b0), ("W1", W1), ("b1", b1)):
                assert np.array_equal(state[f"phi{i + 1}.{name}"], stored[i])
        for name, t in (("b_impute", params.b_impute), ("head.W", params.head_W),
                        ("head.b", params.head_b)):
            assert np.array_equal(state[name], t.data)

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
    # the parameter count the metadata implies is bounded before any
    # parameter is built, so none of these is allocated; a NaN count
    # cannot even be iterated
    _, params = make_model()
    path = tmp_path / "model.json"
    save_model(path, params, identity_stats(1))
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
    save_model(path, params, norm_stats=identity_stats(1))
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
    save_model(tmp_path / "model.json", params, identity_stats(1))
    monkeypatch.setattr(model_mod, "MAX_PARAMS", 100)
    monkeypatch.setattr(model_mod, "ObsNodeParams", None)
    with pytest.raises(DataError, match="MAX_PARAMS=100"):
        load_model(tmp_path / "model.json")


def test_a_checkpoint_is_checked_once(tmp_path, monkeypatch):
    # load_model leaves the stored tensors' names and shapes to load_state
    _, params = make_model()
    save_model(tmp_path / "model.json", params, identity_stats(1))
    calls = []
    real = model_mod.check_state
    monkeypatch.setattr(model_mod, "check_state", lambda *a: calls.append(a) or real(*a))
    loaded, _, _ = load_model(tmp_path / "model.json")
    assert len(calls) == 1
    assert loaded.flat.tobytes() == params.flat.tobytes()


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
    # the history is times[:k] and the targets times[k:j]
    times = np.array([0.0, 1.0, 1.0 + 1e-10, 2.0, 3.0, 3.0 + 1e-10, 4.0])
    assert decision_split(times, 1.0, 2.0) == (3, 6)
    assert decision_split(times, 1.0) == (3, 7)
    # no history before 0, and no target within 0.5 after 1.0
    assert decision_split(times, -1.0) is None and decision_split(times, 1.0, 0.5) is None


# bounds on, between and off the grid, and non-finite ones
BOUNDS = st.one_of(st.floats(-5.0, 60.0), st.sampled_from([np.inf, -np.inf, np.nan]))
# offsets of grid times placed near a bound: on either side of the 1e-9 rule
NUDGES = st.lists(st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 1.5e-9, 2e-9]),
                  max_size=4)


def near(bounds, nudges):
    """Grid times within a few 1e-9 of each finite bound."""
    return [b + d for b in bounds if np.isfinite(b) for d in nudges]


class TestDecisionSplit:
    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
           origin=st.floats(-5.0, 5.0), start=BOUNDS,
           horizon=st.one_of(st.none(), st.floats(-5.0, 60.0), st.sampled_from(
               [0.0, np.inf, -np.inf, np.nan])), nudges=NUDGES)
    def test_pair_equals_the_masks(self, steps, origin, start, horizon, nudges):
        # ascending grids with ties, times within 1e-9 of a bound, a
        # negative or zero horizon, and +-inf and NaN bounds: the history is
        # the mask of times at or before start, the targets the mask of
        # times in (start, start + horizon]; None exactly when either is empty
        end = None if horizon is None else start + horizon
        times = np.sort(np.append(origin + np.cumsum(steps), near([start, end or 0.0], nudges)))
        before, inside = mask_window(times, start, end)
        pair = decision_split(times, start, horizon)
        assert (pair is None) == (not before.any() or not inside.any())
        if pair is not None:
            k, j = pair
            index = np.arange(times.size)
            assert before.tolist() == (index < k).tolist()
            assert inside.tolist() == ((k <= index) & (index < j)).tolist()

    @pytest.mark.parametrize("t_c", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("max_horizon", [None, 2.0, np.inf])
    def test_nonfinite_decision_time_is_refused(self, t_c, max_horizon):
        times = np.arange(6.0)
        assert decision_split(times, t_c, max_horizon) is None
        # TrainConfig refuses an infinite max_horizon; None is the same horizon
        tcfg = TrainConfig(decision_time_grid=[2.0], t_f=6.0,
                           max_horizon=None if max_horizon == np.inf else max_horizon)
        with pytest.raises(ConfigError, match=f"train decision time {t_c!r} has no"):
            _decisions(times, [2.0, t_c], tcfg, "train")


def lockstep_case(n, d_y, hidden, seed, T=6):
    """A random model (d_a = 2, its output layers nonzero) and an n-unit
    record of T strictly increasing times, some outcomes missing."""
    cfg = ObsNodeConfig(d_y=d_y, m=2, d_a=2, phi_hidden_dim=hidden, phi_layers=2,
                        encoder_hidden_dim=3)
    params = random_params(cfg, seed, scale=0.5)
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.2, 1.0, size=T))
    mask = (rng.uniform(size=(T, n, d_y)) < 0.7).astype(float)
    return cfg, params, History(times, rng.normal(size=(T, n, d_y)) * mask, mask,
                                rng.normal(size=(T, n, 2)))


class TestLockstep:
    """`rollouts` steps a record's decisions together, stacked on a leading
    axis, and gives each the states of its own rollout."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 7]), hidden=st.integers(1, 5), d_y=st.integers(1, 2),
           step=st.floats(0.05, 0.9), control=st.sampled_from([None, "shared", "per unit"]),
           seed=st.integers(0, 2**16), data=st.data())
    def test_lockstep_equals_one_call_per_decision(self, n, hidden, d_y, step, control, seed,
                                                   data):
        # narrow hidden and output layers, whose products round otherwise
        # at another row count; steps that do not divide the gaps; repeated
        # pairs, pairs that share a start, and ends that differ, as a
        # max_horizon makes them; the factual control or a given one,
        # shared or per unit, with knots between the record times
        T = 6  # lockstep_case's record length
        pair = st.integers(1, T - 1).flatmap(lambda k: st.tuples(st.just(k),
                                                                st.integers(k + 1, T)))
        pairs = data.draw(st.lists(pair, min_size=1, max_size=5), label="pairs")
        k0, j0 = pairs[0]
        pairs += [pairs[0], (k0, data.draw(st.integers(k0 + 1, T), label="end"))]
        self.check(n, hidden, d_y, step, control, seed, pairs)

    def test_a_fixed_case_equals_one_call_per_decision(self):
        # decisions that join after the first, leave before the last and
        # overlap, under a shared control: the hypothesis test's kind of
        # case, small enough to run first
        self.check(2, 3, 1, 0.3, "shared", 5, [(1, 6), (3, 5), (2, 4), (3, 6)])

    @staticmethod
    def check(n, hidden, d_y, step, control, seed, pairs):
        _, params, record = lockstep_case(n, d_y, hidden, seed)
        ctrl = None
        if control is not None:
            rng = np.random.default_rng(seed + 2)
            knots = np.unique(rng.uniform(record.times[0] - 0.5, record.times[-1] + 0.5, 4))
            ctrl = ControlPath(knots, rng.normal(size=(knots.size,) + (n,) * (control != "shared")
                                                 + (2,)))
        int_cfg = IntegrationConfig(step)
        together = rollouts(record, pairs, params, int_cfg, ctrl)
        assert len(together) == len(pairs)
        for (k, j), states in zip(pairs, together):
            alone = rollouts(record, [(k, j)], params, int_cfg, ctrl)[0]
            assert len(states) == len(alone) == j - k
            for s, t in zip(states, alone):
                assert s.data.shape == (n, 2 * d_y)
                assert s.data.tobytes() == t.data.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 3]), step=st.floats(0.05, 0.9), taped=st.booleans(),
           seed=st.integers(0, 2**16), data=st.data())
    def test_no_control_is_the_records_own_path(self, n, step, taped, seed, data):
        # taped (one decision) or not (one or several): without
        # a control, each state is that under ControlPath(times, a), bit for bit
        T = 6
        _, params, record = lockstep_case(n, 1, 3, seed, T)
        pair = st.integers(1, T - 1).flatmap(lambda k: st.tuples(st.just(k),
                                                                st.integers(k + 1, T)))
        pairs = data.draw(st.lists(pair, min_size=1, max_size=1 if taped else 4), label="pairs")
        int_cfg = IntegrationConfig(step)
        with ad.Tape() if taped else contextlib.nullcontext():
            got = rollouts(record, pairs, params, int_cfg)
            ref = rollouts(record, pairs, params, int_cfg, ControlPath(record.times, record.a))
        for states, expect in zip(got, ref):
            assert [s.data.tobytes() for s in states] == [s.data.tobytes() for s in expect]

    def test_zero_width_steps_at_record_times_keep_the_isin_path(self):
        # on a grid offset by 2^52, where the float spacing is 1, step edges
        # round onto record times and make zero-width steps there, which may
        # read the row recorded at their time; each decision's forecasts,
        # alone and in lockstep, are still the isin path's bit for bit
        _, params, record = lockstep_case(2, 1, 3, seed=11, T=9)
        times = 2.0**52 + np.cumsum([0.0, 1, 3, 5, 7, 3, 1, 3, 5])
        record = History(times, record.y, record.mask, record.a)
        int_cfg = IntegrationConfig(0.45)
        edges = np.array(odeint._step_boundaries(times[0], ControlPath(times, record.a),
                                                 times[1:], int_cfg))
        assert np.isin(edges[:-1][np.diff(edges) == 0], times).sum() == 16
        pairs = [(1, 9), (3, 7), (4, 9), (2, 5)]
        for (k, j), states in zip(pairs, rollouts(record, pairs, params, int_cfg)):
            alone = rollouts(record, [(k, j)], params, int_cfg)[0]
            ref = reencoded_rollout(record, times[k - 1], times[k:j], params, int_cfg)
            assert emissions(states, 1).data.tobytes() == ref.tobytes()
            assert emissions(alone, 1).data.tobytes() == ref.tobytes()

    def test_a_state_gone_nonfinite_among_others_raises(self, monkeypatch):
        # the decision from the first 3 times overflows on its first step,
        # while the one from the first time is in flight
        _, params, record = lockstep_case(2, 1, 4, seed=3)
        real = model_mod.encode_prefixes

        def huge_second_state(history, params, lengths):
            states = real(history, params, lengths)
            if len(states) > 1:
                states[1].z = Tensor(np.full(states[1].z.shape, 1e308))
            return states

        monkeypatch.setattr(model_mod, "encode_prefixes", huge_second_state)
        int_cfg = IntegrationConfig(1.0)
        rollouts(record, [(1, 6)], params, int_cfg)
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=re.escape(f"integrate: the state at t={record.times[3]}")):
            rollouts(record, [(1, 6), (3, 6)], params, int_cfg)

    def test_a_taped_call_takes_one_decision(self):
        _, params, record = lockstep_case(2, 1, 4, seed=4)
        with ad.Tape():
            assert len(rollouts(record, [(2, 5)], params)[0]) == 3
            with pytest.raises(ValueError, match="a taped call takes one decision"):
                rollouts(record, [(2, 5), (3, 5)], params)

    def test_max_steps_bounds_each_decision(self, monkeypatch):
        # 60 steps of 0.1 over the times 0..6 pass MAX_STEPS = 50
        # whether (1, 7) steps alone or (4, 7) splits its span into two
        # stretches; a knot inside a gap adds a step. Each is refused before
        # the encoder runs.
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=3, encoder_hidden_dim=3)
        params = random_params(cfg, 0)
        T = 7
        record = History(np.arange(T, dtype=float), np.zeros((T, 1, 1)), np.ones((T, 1, 1)),
                         np.zeros((T, 1, 1)))
        int_cfg = IntegrationConfig(0.1)
        monkeypatch.setattr(model_mod, "encode_prefixes", None)
        monkeypatch.setattr(odeint, "MAX_STEPS", 50)
        for decisions in ([(1, 7)], [(1, 7), (4, 7)]):
            with pytest.raises(DataError, match="^integrate: 60 steps exceed MAX_STEPS=50$"):
                rollouts(record, decisions, params, int_cfg)
        monkeypatch.setattr(odeint, "MAX_STEPS", 60)
        control = ControlPath(np.array([0.0, 0.55]), np.zeros((2, 1)))
        with pytest.raises(DataError, match="^integrate: 61 steps exceed MAX_STEPS=60$"):
            rollouts(record, [(4, 7), (1, 7)], params, int_cfg, control)

    def test_a_default_step_names_the_smallest_time_gap(self, monkeypatch):
        # without int_cfg the step is a quarter of the smallest time gap:
        # 24 steps of 0.25 from the time 0 to 6 pass MAX_STEPS = 20, and the
        # error names the gap, the step and the rollout's reach, as train's
        # does; the same step given names only the count
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=1, phi_hidden_dim=3, encoder_hidden_dim=3)
        params = random_params(cfg, 0)
        T = 7
        record = History(np.arange(T, dtype=float), np.zeros((T, 1, 1)), np.ones((T, 1, 1)),
                         np.zeros((T, 1, 1)))
        monkeypatch.setattr(model_mod, "encode_prefixes", None)
        monkeypatch.setattr(odeint, "MAX_STEPS", 20)
        with pytest.raises(DataError, match=re.escape(
                "the records' smallest time gap 1.0 sets solver steps of 0.25: a rollout "
                "over 6.0 time units takes more than 20")):
            rollouts(record, [(4, 7), (1, 7)], params)
        with pytest.raises(DataError, match="^integrate: 24 steps exceed MAX_STEPS=20$"):
            rollouts(record, [(1, 7)], params, IntegrationConfig(0.25))

    @pytest.mark.parametrize("units, d_a, values", [(2, 2, (5, 3, 2)), (2, 1, (5, 2))])
    def test_control_of_the_wrong_shape_is_refused_before_any_step(self, monkeypatch, units,
                                                                   d_a, values):
        # a per-unit control for 3 units on a 2-unit record, and a shared
        # one of 2 components for a model with d_a = 1
        cfg = ObsNodeConfig(d_y=1, m=2, d_a=d_a, phi_hidden_dim=3, encoder_hidden_dim=3)
        params = random_params(cfg, 0)
        T = 6
        record = History(np.arange(T, dtype=float), np.zeros((T, units, 1)),
                         np.ones((T, units, 1)), np.zeros((T, units, d_a)))
        control = ControlPath(np.arange(5.0), np.zeros(values))
        monkeypatch.setattr(model_mod, "integrate", None)
        expect = re.escape(f"{values} vs {(5, units, d_a)}")
        with pytest.raises(ShapeMismatch, match=expect):
            rollouts(record, [(2, 5)], params, control=control)
        with pytest.raises(ShapeMismatch, match=expect):
            raw_forecasts(record, [(2, 5)], params, identity_stats(1), control=control)
