"""The benchmark's probes and workloads run against this checkout.

perfbench/ imports the public functions of obsnode and a few private ones
(``odeint._rk4_step``, ``train._batch_loss``). These
tests load its modules from the checkout, as ``perfbench/run.py`` does, so
that a change which breaks an entry point it calls fails here.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from obsnode.model import ObsNodeConfig, ObsNodeParams
from obsnode.simulate import (CancerSimConfig, SemiSynthConfig, Trajectory,
                              generate_cancer_dataset, generate_semi_synthetic)
from obsnode.train import NormStats, train

import contract
from support import identity_stats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    """perfbench/<name>.py as a module; its own imports (``configs``,
    ``tracer``) resolve in perfbench/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_probes_run(monkeypatch):
    out, samples = load("probes", monkeypatch).run_probes()
    assert all(np.isfinite(value) for value, _ in out.values())
    assert out["autodiff.backward_probe_nodes"][0] > 0
    assert min(samples.values()) >= 5


def test_forecast_query_on_a_small_model(monkeypatch):
    workloads = load("workloads", monkeypatch)
    cfg = ObsNodeConfig(d_y=2, m=2, d_a=2, phi_hidden_dim=4, encoder_hidden_dim=3,
                        treatment_scale=(14.0, 3.0))
    params = ObsNodeParams(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    times = np.arange(0.0, 360.0, 6.0)
    unit = Trajectory(unit_id=0, times=times, y=rng.uniform(0.5, 2.0, size=(times.size, 2)),
                      mask=np.ones((times.size, 2)),
                      a=rng.uniform(0.0, 3.0, size=(times.size, 2)))
    stats = NormStats(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    schedule = rng.uniform(0.0, 3.0, size=(workloads.CYCLE_STARTS.size, 2))
    pred = workloads.query(params, stats, unit, 150.0, schedule)
    # the 20 observation times in (150, 270]
    assert pred.shape == (20, 2) and np.isfinite(pred).all()
    assert np.array_equal(pred, workloads.query(params, stats, unit, 150.0, schedule))


@pytest.mark.parametrize("name,sim_cls,generate", [
    ("CANCER", CancerSimConfig, generate_cancer_dataset),
    ("SEMI", SemiSynthConfig, generate_semi_synthetic)])
def test_train_configs_pass_the_decision_check(monkeypatch, name, sim_cls, generate):
    # every train and validation decision time of a benchmark training config
    # has history and a target, so a rule that would stop a workload fails here
    configs = load("configs", monkeypatch)
    splits = generate(sim_cls(**dict(getattr(configs, f"{name}_SIM"), n_patients=3)))
    tcfg = replace(getattr(configs, f"{name}_TRAIN"), epochs=0)
    model_cfg = getattr(configs, f"{name}_MODEL")
    _, history = train(model_cfg, splits, tcfg, stats=identity_stats(model_cfg.d_y))
    assert history == []


def test_no_command_runs_a_counted_op(monkeypatch):
    # every op the benchmark's tracer counts raises, wherever obsnode holds
    # it: train, evaluate, forecast and gradcheck (contract.py's small run
    # set) still exit 0, each on fused nodes alone
    tracer = load("tracer", monkeypatch)
    from obsnode import autodiff as ad

    def refuse(op):
        def raising(*args, **kwargs):
            raise AssertionError(f"autodiff.{op.__name__} ran")
        return raising

    undo = tracer.replace_everywhere({getattr(ad, name) for name in tracer.OPS}, refuse)
    try:
        report, _ = contract.run_in_temp(quick=True)
    finally:
        tracer.restore(undo)
    assert {"train cancer", "evaluate semi", "forecast cancer to stdout", "gradcheck"} <= set(
        report["commands"])
    assert all(c["exit"] == 0 for c in report["commands"].values())
