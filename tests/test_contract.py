"""The output contract's runner (tests/contract.py) on its small run set:
two runs give one report, and --compare tells identical outputs from
changed ones."""

import importlib.util
import json

import numpy as np
import pytest

import contract


@pytest.fixture(scope="module")
def runs():
    return [contract.run_in_temp(quick=True) for _ in range(2)]


def write(path, report, arrays):
    path.write_text(json.dumps(report))
    with open(f"{path}.npz", "wb") as fh:
        np.savez(fh, **arrays)
    return path


def test_every_command_exits_zero_and_writes(runs):
    (report, arrays), _ = runs
    assert report["commands"] and all(c["exit"] == 0 for c in report["commands"].values())
    assert {"runs/cancer/checkpoint.json", "eval/semi/rmse_grid.csv",
            "forecast/cancer.csv"} <= set(report["artifacts"])
    grads = [k for k in report["gradients"] if k.startswith("gradient:")]
    assert len(grads) == 2 * 24 and all(np.isfinite(arrays[k]).all() for k in grads)
    assert any(np.any(arrays[k] != 0.0) for k in grads)


def test_two_runs_give_one_report(runs, tmp_path):
    (a, arrays_a), (b, arrays_b) = runs
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    lines, same = contract.compare(write(tmp_path / "a.json", a, arrays_a),
                                   write(tmp_path / "b.json", b, arrays_b))
    assert same and all(line.endswith(": identical") for line in lines)


def test_numbers_skip_the_digits_inside_names():
    assert contract.numbers(b'{"int_method": "rk4", "phi0.W0": [1.5, -2e-3], '
                            b'"component_1": 7}').tolist() == [1.5, -0.002, 7.0]


def test_compare_names_what_changed(runs, tmp_path):
    (a, arrays_a), _ = runs
    b = json.loads(json.dumps(a))
    arrays_b = dict(arrays_a)
    key = "gradient:cancer:head.b"
    arrays_b[key] = arrays_a[key] * (1.0 + 1e-3)
    b["gradients"][key] = contract.sha(arrays_b[key].tobytes())
    b["commands"]["gradcheck"]["exit"] = 4
    lines, same = contract.compare(write(tmp_path / "a.json", a, arrays_a),
                                   write(tmp_path / "b.json", b, arrays_b))
    changed = [line for line in lines if not line.endswith(": identical")]
    assert not same
    assert changed[0] == "gradcheck [exit]: differs (0 != 4)"
    assert changed[1].startswith(f"{key}: largest relative difference 9.99")
    assert len(changed) == 2


def test_a_checkout_before_the_pair_decisions_has_no_gradients(monkeypatch, capsys):
    # a train module whose _batch_loss takes a decision time, as before
    # decisions were index pairs, or has none: the gradient part is absent
    from obsnode import train

    def batch_loss_of_a_time(record, t_c, params, sigma2, int_cfg, max_horizon=None):
        raise AssertionError("not called")

    monkeypatch.setattr(train, "_batch_loss", batch_loss_of_a_time)
    assert contract.batch_gradients(None, "cancer", "runs/cancer", "data/cancer", {}, 1) == {}
    monkeypatch.delattr(train, "_batch_loss")
    assert contract.batch_gradients(None, "semi", "runs/semi", "data/semi", {}, 1) == {}
    err = capsys.readouterr().err
    assert "gradients of cancer absent" in err and "gradients of semi absent" in err


def test_reach_lists_the_statements_that_did_not_run(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text('''\
def f(x):
    """A docstring runs no line."""
    def g():
        return 1
    try:
        y = (x
             + 1)
    except TypeError:
        raise ValueError("never")
    if y > 5:
        return g()
    elif y > 2:
        return 2
    return 0


class C:
    def m(self):
        return 3
''')
    spec = importlib.util.spec_from_file_location("probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    missed = contract.unexecuted([path], lambda: probe.f(2))
    # f(2): the raise and the returns of the branches not taken, by their
    # first lines, of f's 7 statements (its nested g's are g's own); the
    # two-line assignment ran; g and C.m never ran
    assert missed == {(str(path), "f"): ([9, 11, 14], 7), (str(path), "f.g"): ([4], 1),
                      (str(path), "C.m"): ([19], 1)}
