"""A catalogue of source mutations and the tests that must kill each one.

Each entry names a file under ``src/obsnode``, an exact snippet of it, the
snippet's replacement, the test ids expected to fail on the mutated code,
and a note. Run from the repository root:

    python3 tests/mutants.py              # every entry
    python3 tests/mutants.py --only NAME  # one entry

For each entry the runner copies the tracked tree (``git ls-files``; outside
a git work tree, every file but those under ``.git`` and the caches) to a
temporary directory, applies the one mutation there, runs
``pytest -x -q -p no:cacheprovider`` on the entry's ids and reports killed
(the tests failed) or survived, with the seconds taken. It exits 1 if any
mutant survives. ``tests/test_mutants.py`` checks, in tier 1, that every
snippet occurs exactly once in its file, so a refactor that removes the
mutated code has to update or retire the entry.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/obsnode
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    note: str


CATALOGUE = (
    Mutant("adam-bias-corrections-swapped", "autodiff.py",
           "np.divide(m, c1, out=w)\n        w *= self.lr\n        np.divide(v, c2, out=g)",
           "np.divide(m, c2, out=w)\n        w *= self.lr\n        np.divide(v, c1, out=g)",
           ("tests/test_autodiff.py::TestAdam",),
           "m is divided by 1 - beta2^t and v by 1 - beta1^t"),
    Mutant("adam-padding-gradient-kept", "autodiff.py",
           "        self.g[self.frozen] = 0.0\n", "",
           ("tests/test_train.py::TestTrainLoop::test_padding_stays_positive_zero",),
           "the first-layer padding's gradient reaches Adam, so the field stops "
           "being triangular"),
    Mutant("adam-clip-norm-in-storage-order", "autodiff.py",
           "np.sqrt(sum(float(np.sum(sq[p])) for p in self.parts))",
           "np.sqrt(float(np.sum(sq)))",
           ("tests/test_model.py::TestStoredLayout::test_clipping_keeps_the_per_entry_bits",),
           "one sum over the whole buffer rounds otherwise than one float per "
           "checkpoint entry in param_shapes order"),
    Mutant("adam-overflowing-norm-zeroes-the-step", "autodiff.py",
           "if norm == np.inf:", "if False:",
           ("tests/test_autodiff.py::TestAdam::test_an_overflowing_norm_clips_to_the_bound",
            "tests/test_train.py::TestTrainLoop::test_overflowing_gradient_norm_still_steps"),
           "g * g overflows for a finite gradient and the step is scaled by 1 / inf"),
    Mutant("w0-split-off-by-one-row", "model.py",
           "(W0z[i, :(i + 1) * d_y], W0c[i])", "(W0z[i, :(i + 1) * d_y + 1], W0c[i])",
           ("tests/test_model.py::TestStoredLayout",),
           "phi{i}.W0 takes one padding row of the z rows"),
    Mutant("gru-gates-r-and-u-swapped", "model.py",
           "where += [(Wp[j],), (Up[j] if j < 2 else Uhp,), (bp[j],)]",
           "where += [(Wp[(1, 0, 2)[j]],), (Up[1 - j] if j < 2 else Uhp,), (bp[(1, 0, 2)[j]],)]",
           ("tests/test_model.py::TestStoredLayout::test_entries_name_their_stored_tensors",
            "tests/test_fused.py::TestStackedAgainstPerBlock::test_encoder"),
           "enc.Wr, enc.Ur and enc.br name the stored update gate, and the u "
           "entries the reset gate"),
    Mutant("param-assignment-rebinds", "autodiff.py",
           "            self._view[...] = value\n",
           "            self._view = np.array(value, dtype=np.float64)\n",
           ("tests/test_autodiff.py::TestParam",
            "tests/test_model.py::TestStoredLayout::test_assignment_reaches_the_field_and_adam"),
           "an assignment detaches the tensor from the buffer that Adam and the "
           "checkpoint read"),
    Mutant("adam-scans-after-counting-the-step", "autodiff.py",
           """        _check_finite("gradient", g)
        if max_grad_norm is not None:
            norm, unit = self._norm(g), 1.0
            if norm == np.inf:  # g * g overflowed: measure g / max|g| instead
                unit = np.max(np.abs(g))
                norm = self._norm(g / unit)
            if norm > max_grad_norm / unit:
                g *= max_grad_norm / unit / norm
        self.t += 1
""", """        if max_grad_norm is not None:
            norm, unit = self._norm(g), 1.0
            if norm == np.inf:  # g * g overflowed: measure g / max|g| instead
                unit = np.max(np.abs(g))
                norm = self._norm(g / unit)
            if norm > max_grad_norm / unit:
                g *= max_grad_norm / unit / norm
        self.t += 1
        _check_finite("gradient", g)
""",
           ("tests/test_autodiff.py::TestAdam::test_a_refused_step_is_not_counted",
            "tests/test_autodiff.py::TestAdam::test_a_nonfinite_gradient_changes_nothing"),
           "a refused step still counts, so the next step's bias corrections are "
           "one step late"),
    Mutant("accum-without-its-test", "autodiff.py",
           "    if not t.requires_grad:\n        return\n", "",
           ("tests/test_autodiff.py::TestOpSweep::test_frozen_inputs_take_no_gradient",),
           "a tensor that requires no grad takes a gradient"),
    Mutant("leaky-relu-mask-strict", "autodiff.py", "lambda x: x >= 0,", "lambda x: x > 0,",
           ("tests/test_autodiff.py::TestForwardOps::test_kept_mask_gives_the_slope_that_y_cannot",),
           "the leaky ReLU's VJP takes the slope, not 1, at pre = +0.0 and -0.0, "
           "against the select form"),
    Mutant("field-first-layer-rebuilt-without-control", "model.py",
           "zs[:, None] @ W0zd\n                pre += ctrl @ W0cd + b0d\n",
           "zs[:, None] @ W0zd\n",
           ("tests/test_fused.py::TestBitwiseAgainstOpGraph::test_triangular_rhs",),
           "the rebuild makes the first hidden layer from z alone, so its activation "
           "and mask are not the forward pass's"),
    Mutant("field-taped-forward-keeps-a-hidden-layer", "model.py",
           "                pre = act(pre, out=pre) @ Wd\n",
           "                y = act(pre)\n"
           "                if ad._active_tape() is not None:\n"
           "                    tiles.setdefault(None, []).append(y)\n"
           "                pre = y @ Wd\n",
           ("tests/test_fused.py::TestTapeBytes",),
           "under a tape the forward pass keeps each hidden activation as well; no "
           "VJP reads it, so only the tape's bytes show it"),
    Mutant("field-taped-forward-keeps-a-mask", "model.py",
           "                pre = act(pre, out=pre) @ Wd\n",
           "                if ad._active_tape() is not None:\n"
           "                    tiles.setdefault(None, []).append(keep(pre))\n"
           "                pre = act(pre, out=pre) @ Wd\n",
           ("tests/test_fused.py::TestTapeBytes::test_one_hidden_layer_keeps_no_activation",
            "tests/test_fused.py::TestTapeBytes::test_taped_solve_keeps_only_what_the_vjps_read"),
           "under a tape the forward pass keeps each hidden layer's leaky-ReLU mask, "
           "one byte an entry; the rebuild makes its own, so only the tape's bytes "
           "show it"),
    Mutant("field-rebuild-keeps-the-control-term", "model.py",
           "pre += ctrl @ W0cd + b0d\n", "pre += c\n",
           ("tests/test_fused.py::TestTapeBytes",),
           "the rebuild reads the segment's first-layer control term that f made, "
           "so every step node keeps one (m, n, w) array per control segment alive; "
           "only the tape's bytes show it"),
    Mutant("field-rebuild-reads-another-segments-control", "model.py",
           "pre += ctrl @ W0cd + b0d\n", "pre += tiles.setdefault(0.5, ctrl) @ W0cd + b0d\n",
           ("tests/test_fused.py::TestSolveAgainstOpGraph",),
           "every rebuild of a solve takes the control of the first step the backward "
           "pass reaches, the last segment's, so the other segments' gradients are "
           "those of another control term"),
    Mutant("field-stage-vjp-reads-the-next-stage", "model.py",
           "zip(reversed(later), reversed(layers)):",
           "zip(reversed(later), reversed([(np.roll(k, -1, 0), np.roll(y, -1, 0)) "
           "for k, y in layers])):",
           ("tests/test_fused.py::TestStepNode", "tests/test_fused.py::TestSolveAgainstOpGraph"),
           "each RK4 stage's VJP reads the next stage's rebuilt activations and "
           "masks, the last stage the first's"),
    Mutant("field-rebuild-from-the-first-stage", "model.py",
           "pre = zs[:, None] @ W0zd", "pre = zs[[0] * len(zs), None] @ W0zd",
           ("tests/test_fused.py::TestStepNode", "tests/test_fused.py::TestSolveAgainstOpGraph"),
           "the rebuild makes every stage's hidden layers from the first stage's "
           "input, the step's start state"),
    Mutant("field-chain-unshifted", "model.py",
           "gz[:, d_y:] += g[:, :-d_y]", "gz[:, d_y:] += g[:, d_y:]",
           ("tests/test_fused.py::TestFusedGradCheck::test_triangular_rhs",),
           "the integrator chain's gradient reaches each block of z from its own "
           "block of dz/dt, not from the block before"),
    Mutant("gru-gate-gradients-swapped", "model.py",
           "G[:2] = sig_vjp(g_ru, None, ru)", "G[:2] = sig_vjp(g_ru[::-1], None, ru)",
           ("tests/test_fused.py::TestFusedGradCheck::test_encode_prefixes",
            "tests/test_fused.py::TestBitwiseAgainstOpGraph::test_encode"),
           "the one sigmoid VJP over both gates pairs r's gradient with u and u's with r"),
    Mutant("gru-backward-reset-product-of-the-next-state", "model.py",
           "_affine_vjp(G[2], r * h, Uht, Uh)", "_affine_vjp(G[2], r * hs[k], Uht, Uh)",
           ("tests/test_fused.py::TestFusedGradCheck::test_encode_prefixes",
            "tests/test_fused.py::TestBitwiseAgainstOpGraph::test_encode"),
           "the backward pass forms r h again from the state after the step, not "
           "the one before it that the forward pass multiplied"),
    Mutant("untaped-encoder-copies-the-state-before-the-step", "model.py",
           "Tensor(new if taped else new.copy())", "Tensor(new if taped else h.copy())",
           ("tests/test_model.py::TestUntapedEncoder::"
            "test_untaped_states_equal_the_taped_ones_bitwise",),
           "the untaped pass copies out the state before step k, not after it, so "
           "each prefix's state is one step short; a taped pass does not show it"),
    Mutant("warm-start-not-copied", "train.py",
           "params.flat[...] = init.flat", "params.flat[...] = params.flat",
           ("tests/test_cli.py::TestResume::test_zero_epoch_resume_keeps_weights",),
           "train() ignores its init parameters and starts from the seed's draw, "
           "so a warm start from a checkpoint resumes nothing"),
    Mutant("train-keeps-the-batch-tape", "train.py",
           "    opt.step(max_grad_norm=max_grad_norm)\n",
           "    opt.step(max_grad_norm=max_grad_norm)\n    params.last_tape = tape\n",
           ("tests/test_train.py::TestTrainLoop::test_no_batch_tape_outlives_its_batch",),
           "each batch's tape, with every array its backward pass read, stays alive "
           "through the next batch's forward pass and through validation"),
    Mutant("gru-state-gradients-swapped", "model.py",
           "                    ad._accum(into, g_h[1])\n                    ad._accum(into, g_h[0])",
           "                    ad._accum(into, g_h[0])\n                    ad._accum(into, g_h[1])",
           ("tests/test_fused.py::TestBitwiseAgainstOpGraph::test_encode_fixed_draws",
            "tests/test_fused.py::TestBitwiseAgainstOpGraph::test_encode"),
           "the state gradients through the recurrent products accumulate in "
           "another order than the op graph's, so they round otherwise"),
    Mutant("head-bias-gradient-of-one-unit", "model.py",
           "x.data, W, W.data, b))", "x.data, W, W.data)) or ad._accum(b, g[-1:])",
           ("tests/test_fused.py::TestTailAgainstOpGraph::test_head",),
           "the encoder head's bias takes the last unit's gradient, not the sum "
           "over the units; a single unit does not show it"),
    Mutant("emission-gradient-into-the-last-block", "model.py",
           "full[:, :d_y] = gz", "full[:, -d_y:] = gz",
           ("tests/test_fused.py::TestTailAgainstOpGraph::test_emissions",),
           "the emission's backward pass writes each state's gradient into its "
           "last d_y columns, not the observed first block; m = 1 does not show it"),
    Mutant("loss-gradient-without-the-factor-two", "train.py",
           "g * weights * 2.0 * err", "g * weights * err",
           ("tests/test_fused.py::TestTailAgainstOpGraph::test_masked_loss",),
           "the masked loss's VJP drops the 2 of d(err^2)/d(err), so every "
           "gradient is half the loss's"),
    Mutant("rk4-state-gradient-without-s2", "odeint.py",
           "(h / 2.0)) + s2 + s3 + s4", "(h / 2.0)) + s3 + s4",
           ("tests/test_odeint.py::TestAdjoint::test_adjoint_matches_finite_differences",),
           "the RK4 step's state gradient drops the second stage's direct term"),
    Mutant("step-takes-the-control-at-its-end", "odeint.py",
           'edges[:-1], side="right")', 'edges[1:], side="right")',
           ("tests/test_odeint.py::TestIntegrate::test_piecewise_constant_control_is_exact",
            "tests/test_fused.py::TestNoLookAhead::test_prediction_reads_no_control_past_its_time"),
           "each step reads the control at its end time, a look-ahead"),
    Mutant("default-step-a-half-spacing", "odeint.py",
           "float(np.min(np.diff(times))) / 4.0", "float(np.min(np.diff(times))) / 2.0",
           ("tests/test_train.py::test_omitted_int_step_is_a_quarter_of_the_smallest_spacing",),
           "a train config without int_step integrates at half the smallest "
           "spacing, not a quarter"),
    Mutant("targets-to-twice-max-horizon", "model.py",
           "else t_c + horizon\n", "else t_c + 2 * horizon\n",
           ("tests/test_fused.py::TestNoLookAhead::test_loss_reads_nothing_past_its_last_target",),
           "the loss scores targets up to twice max_horizon after the decision time"),
    Mutant("factual-path-one-row-late", "model.py",
           "ControlPath(times, record.a)", "ControlPath(times[:-1], record.a[1:])",
           ("tests/test_model.py::TestLockstep::"
            "test_zero_width_steps_at_record_times_keep_the_isin_path",
            "tests/test_model.py::TestLockstep::test_no_control_is_the_records_own_path",
            "tests/test_evaluate.py::TestSharedEncoder"),
           "each factual knot takes the treatment recorded one grid time after it, "
           "a look-ahead"),
    Mutant("decision-split-without-tolerance", "model.py",
           "b + 1e-9, side=", "b, side=",
           ("tests/test_model.py::test_window_splits_at_the_decision_time",
            "tests/test_model.py::TestDecisionSplit::test_pair_equals_the_masks",
            "tests/test_evaluate.py::TestBins::test_slices_equal_the_masked_bins"),
           "a grid time rounded just past a decision time or a horizon end moves "
           "to the other side of it, and so does a target rounded just past a "
           "horizon bin's end"),
    Mutant("step-count-without-rounding", "odeint.py",
           "np.maximum(1.0, np.ceil(np.diff(anchors) / step_size - 1e-12))",
           "np.diff(anchors) / step_size",
           ("tests/test_train.py::test_int_step_counts_the_steps_of_each_grid_gap",
            "tests/test_train.py::test_step_count_is_the_solvers"),
           "train's MAX_STEPS check measures the span in steps and misses the steps "
           "that rounding each grid gap up adds"),
    Mutant("rollouts-counts-without-the-knots", "model.py",
           "times[k - 1], control.knot_times, times[k:j]", "times[k - 1], times, times[k:j]",
           ("tests/test_model.py::TestLockstep::test_max_steps_bounds_each_decision",
            "tests/test_train.py::test_one_count_bounds_every_solve"),
           "rollouts checks a decision against the record times, not the control's "
           "knots, so a knot inside a grid gap adds a step that MAX_STEPS does not see"),
    Mutant("max-steps-is-numeric", "odeint.py",
           'raise DataError(f"integrate: {steps.sum()',
           'raise ad.NumericError(f"integrate: {steps.sum()',
           ("tests/test_odeint.py::TestIntegrate::test_max_steps_guard",
            "tests/test_cli.py::test_a_tiny_time_gap_is_a_data_error"),
           "more steps than MAX_STEPS, which the times and knots ask for, exit 4 as a "
           "numeric failure, not 3 as bad input"),
    Mutant("control-path-accepts-nonfinite-knots", "odeint.py",
           "if not (np.isfinite(self.knot_times).all() and np.isfinite(self.knot_values).all()):",
           "if False:",
           ("tests/test_odeint.py::TestControlPath::"
            "test_refused_exactly_when_nonfinite_or_not_increasing",
            "tests/test_evaluate.py::test_nonfinite_control_is_a_data_error"),
           "a NaN or infinite knot builds a path: a NaN time is passed over, a NaN "
           "value fails mid-solve as a numeric error"),
    Mutant("decisions-count-from-t-c", "train.py",
           "_counted_steps(times[k - 1],",
           "_counted_steps(decision_times[pairs.index((k, j))],",
           ("tests/test_train.py::test_one_count_bounds_every_solve",),
           "train's MAX_STEPS check counts from t_c, not from times[k - 1] where the "
           "rollout starts, so it misses the steps of the gap before t_c"),
    Mutant("lockstep-join-one-segment-late", "model.py",
           "if k - 1 == lo < j - 1)", "if k - 1 < lo < j - 1 and d not in at)",
           ("tests/test_model.py::TestLockstep::test_a_fixed_case_equals_one_call_per_decision",
            "tests/test_model.py::TestLockstep::test_lockstep_equals_one_call_per_decision"),
           "a decision joins the lockstep at the first join or leave time after "
           "its own, from the state encoded before it"),
    Mutant("lockstep-leave-one-segment-early", "model.py",
           "if decisions[d][1] - 1 > lo}", "if decisions[d][1] - 1 > hi}",
           ("tests/test_model.py::TestLockstep::test_a_fixed_case_equals_one_call_per_decision",
            "tests/test_model.py::TestLockstep::test_lockstep_equals_one_call_per_decision"),
           "a decision leaves the lockstep before the segment that ends at its "
           "last target, so it misses that segment's states"),
    Mutant("lockstep-control-term-of-the-first-decision", "model.py",
           "z[..., None, :, :]) @ W0zd\n            pre += c",
           "z[..., None, :, :]) @ W0zd\n            pre.reshape(-1, *pre.shape[-3:])[0] += c",
           ("tests/test_model.py::TestLockstep::test_a_fixed_case_equals_one_call_per_decision",
            "tests/test_model.py::TestLockstep::test_lockstep_equals_one_call_per_decision"),
           "the control term is not broadcast over the decision axis: only the "
           "first decision in flight gets it; a lone state does not show it"),
    Mutant("forecasts-in-normalized-units", "evaluate.py",
           "zscore_invert(emissions(states, params.cfg.d_y).data, stats)",
           "emissions(states, params.cfg.d_y).data",
           ("tests/test_evaluate.py::test_forecasts_are_in_the_records_units",
            "tests/test_evaluate.py::TestSharedEncoder"),
           "raw_forecasts returns the model's z-scored outcomes, so the RMSE grid "
           "and obsnode forecast read them as raw units"),
    Mutant("rmse-unscaled", "evaluate.py", ".sum() / c[d]) / scale[d]", ".sum() / c[d])",
           ("tests/test_evaluate.py::TestRmseGrid::test_scaling_invariance",),
           "the RMSE grid is not divided by the split's std"),
    Mutant("rmse-scale-after-the-forecasts", "evaluate.py",
           """    scale = _fit_stats(record).std

    values = np.full((t_c_grid.size, horizons.size, d_y), np.nan)
    counts = np.zeros((t_c_grid.size, horizons.size, d_y), dtype=int)
    scored = [(i, float(t_c), pair) for i, t_c in enumerate(t_c_grid)
              if (pair := decision_split(record.times, t_c, horizons[-1])) is not None]
    preds = raw_forecasts(record, [pair for _, _, pair in scored], params, stats, int_cfg)
""", """
    values = np.full((t_c_grid.size, horizons.size, d_y), np.nan)
    counts = np.zeros((t_c_grid.size, horizons.size, d_y), dtype=int)
    scored = [(i, float(t_c), pair) for i, t_c in enumerate(t_c_grid)
              if (pair := decision_split(record.times, t_c, horizons[-1])) is not None]
    preds = raw_forecasts(record, [pair for _, _, pair in scored], params, stats, int_cfg)
    scale = _fit_stats(record).std
""",
           ("tests/test_evaluate.py::TestRmseGrid::"
            "test_bad_scale_is_data_error_before_any_forecast",),
           "a split rmse_grid cannot scale is found only after every forecast is made"),
    Mutant("checkpoint-extra-tensor-accepted", "model.py",
           "if unknown := [name for name in arrays if name not in known]:", "if unknown := []:",
           ("tests/test_model.py::TestModelCheckpoint::"
            "test_tensor_the_metadata_does_not_describe_rejected[unknown]",),
           "a checkpoint tensor that no parameter of the config names is loaded "
           "and ignored"),
    Mutant("record-placeholders-kept", "model.py",
           """        y = np.where(observed, y, 0.0)
        if not (np.isfinite(y).all() and np.isfinite(a).all()):""",
           """        if not (np.isfinite(np.where(observed, y, 0.0)).all() and np.isfinite(a).all()):""",
           ("tests/test_simulate.py::test_unobserved_entries_become_zero",
            "tests/test_model.py::TestRecordRule"),
           "a record keeps its unobserved placeholders, NaN included, where the "
           "rule makes them +0.0"),
    Mutant("record-times-non-strict", "model.py",
           "np.any(np.diff(times) <= 0)", "np.any(np.diff(times) < 0)",
           ("tests/test_simulate.py::test_trajectory_requires_increasing_times",
            "tests/test_model.py::TestRecordRule"),
           "a record with a repeated time is accepted"),
    Mutant("stack-units-compares-grid-shapes-only", "train.py",
           "if ragged or not (grids == first.times).all():",
           "if ragged or grids.shape[1:] != first.times.shape:",
           ("tests/test_train.py::TestStackUnits::test_an_off_grid_unit_anywhere_is_rejected",
            "tests/test_train.py::TestStackUnits::test_grid_mismatch_rejected"),
           "units whose grids have one length but differ in a time are stacked on "
           "the first unit's grid"),
    Mutant("manifest-version-unchecked", "simulate.py",
           'if manifest["format_version"] != 1:', "if False:",
           ("tests/test_simulate.py::TestDatasetIo::"
            "test_a_manifest_that_does_not_describe_the_files_is_refused",
            "tests/test_cli.py::test_manifest_that_does_not_describe_the_dataset_is_data_error"),
           "a dataset manifest of another format_version is read as version 1"),
    Mutant("unit-id-may-be-a-boolean", "simulate.py",
           'if type(uid := rec["unit_id"]) is not int:',
           'if not isinstance(uid := rec["unit_id"], int):',
           ("tests/test_simulate.py::TestDatasetIo::"
            "test_a_unit_id_that_is_not_an_integer_is_refused",),
           "a true or false unit id reads, as bool is a subclass of int, and no "
           "`forecast --unit-id` can name it"),
    Mutant("rollouts-default-step-error-unworded", "model.py",
           "if derived else e", "if False else e",
           ("tests/test_model.py::TestLockstep::test_a_default_step_names_the_smallest_time_gap",
            "tests/test_cli.py::test_a_tiny_time_gap_is_a_data_error"),
           "evaluate and forecast at the default step print only the step count, "
           "not the time gap that set the step"),
    Mutant("semi-noise-sd-check-passes-nan", "simulate.py",
           "if not 0 < self.eta_sd < np.inf or self.seed < 0:",
           "if self.eta_sd <= 0 or self.seed < 0:",
           ("tests/test_api_surface.py::"
            "test_every_float_field_refuses_nonfinite_values[SemiSynthConfig]",),
           "a NaN or infinite eta_sd passes SemiSynthConfig; NaN fails later as "
           "the simulator's numeric error"),
    Mutant("schedule-read-one-cycle-early", "simulate.py",
           "doses[:, cycle] = dose_schedule[:, cycle]",
           "doses[:, cycle] = dose_schedule[:, min(cycle + 1, config.n_cycles - 1)]",
           ("tests/test_simulate.py::TestCancerSimulation::"
            "test_dose_override_keeps_physiological_noise",
            "tests/test_simulate.py::TestCancerSimulation::"
            "test_schedule_changed_from_a_cycle_leaves_the_days_before_it"),
           "an override schedule's doses are given one cycle early"),
    Mutant("cancer-noise-from-the-parameter-stream", "simulate.py",
           "rngs = [_patient_rng(config.seed, uid, 1)", "rngs = [_patient_rng(config.seed, uid, 0)",
           ("tests/test_simulate.py::TestCohortMatchesReference::test_cancer_cohort",
            "tests/test_simulate.py::TestPinnedDatasetBytes::test_cancer"),
           "each patient's physiological noise comes from its parameter stream"),
    Mutant("semi-chunk-leaves-out-its-last-patient", "simulate.py",
           "hi = min(lo + chunk, n)", "hi = min(lo + chunk - 1, n)",
           ("tests/test_simulate.py::TestCohortMatchesReference::test_semi_synthetic_cohort",),
           "the last patient of each full evaluation chunk is never drawn or "
           "evaluated; a cohort inside one partial chunk does not show it"),
    Mutant("semi-grid-counted-by-floor", "simulate.py",
           "return math.ceil(horizon_hours + 0.5)", "return int(horizon_hours) + 1",
           ("tests/test_simulate.py::TestSemiSynthetic::test_counted_hours_are_the_grid",),
           "a horizon whose fraction is above one half loses its last grid hour"),
    Mutant("writer-shared-text-outlives-its-array", "simulate.py",
           "if bits != shared[key][0]:", "if shared[key][0] is None:",
           ("tests/test_simulate.py::TestDatasetIo::"
            "test_each_line_is_json_dumps_of_its_plain_record",),
           "every unit of a split is written with the first unit's times and mask"),
    Mutant("writer-shared-text-compared-by-value", "simulate.py",
           "arr.tobytes())", "tuple(arr.flat))",
           ("tests/test_simulate.py::TestDatasetIo::"
            "test_each_line_is_json_dumps_of_its_plain_record",),
           "times or a mask equal in value but not in bits (-0.0 for 0.0) keep "
           "the previous unit's text"),
    Mutant("oracle-emission-untransposed", "identify.py",
           "emission = scm.emission.transpose(1, 0, 2)", "emission = scm.emission",
           ("tests/test_identify.py::TestEnumerateJoint::test_cells_are_the_trajectory_products",
            "tests/test_identify.py::TestOracleLabels"),
           "enumerate_joint places the emission with its z and eps axes swapped"),
    Mutant("adjustment-without-the-query-check", "identify.py",
           "    _check_query(scm, q)\n    filt = filter_distribution",
           "    filt = filter_distribution",
           ("tests/test_identify.py::TestQuerySymbols::test_query_values_are_checked",),
           "adjustment_estimate answers a query past the horizon, which "
           "interventional_truth refuses"),
    Mutant("numeric-error-exits-3", "cli.py",
           "file=sys.stderr)\n        return 4", "file=sys.stderr)\n        return 3",
           ("tests/test_cli.py::test_failed_validation_names_its_epoch",),
           "a NumericError exits with the data-error code"),
)


CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def tracked_files():
    """The paths, relative to the root, of the files git tracks (and those
    not yet committed but staged or new, as git ls-files --others
    --exclude-standard lists them); outside a git work tree, or without
    git, every file not under a directory named in CACHES."""
    try:
        listed = subprocess.run(["git", "ls-files", "--cached", "--others",
                                 "--exclude-standard"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout
        return listed.splitlines()
    except (OSError, subprocess.CalledProcessError):
        return [p.relative_to(ROOT).as_posix() for p in sorted(ROOT.rglob("*"))
                if p.is_file() and not CACHES & set(p.relative_to(ROOT).parts)]


def tracked_tree(dest: Path):
    """Copy the :func:`tracked_files` to dest."""
    for rel in tracked_files():
        src = ROOT / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) of one mutant on a fresh copy of the tree."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        tracked_tree(tree)
        path = tree / "src" / "obsnode" / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once")
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *mutant.tests],
                              cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    return proc.returncode == 1, time.perf_counter() - start


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--only", help="run the entry of this name")
    args = p.parse_args(argv)
    chosen = [m for m in CATALOGUE if args.only in (None, m.name)]
    if not chosen:
        raise SystemExit(f"no entry named {args.only!r}")
    survived = []
    for mutant in chosen:
        killed, seconds = run(mutant)
        print(f"{'killed' if killed else 'SURVIVED':8} {seconds:6.1f} s  {mutant.name}")
        if not killed:
            survived.append(mutant.name)
    print(f"{len(chosen) - len(survived)}/{len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
