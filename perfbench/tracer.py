"""In-memory span tracer installed by replacing obsnode module attributes.

Nothing under ``src/`` is edited: :meth:`Tracer.install` swaps each traced
function for a wrapper in every obsnode module namespace (and in the op
tables that hold function references), and :meth:`Tracer.uninstall` puts the
originals back. Every call is aggregated per name (calls, total time, self
time = duration minus the time covered by traced children). The first
``SPAN_CAP`` calls of each name are also kept as spans
``(id, name, start, end, parent_id, run_id)``; hot leaf functions such as the
autodiff ops pass that cap quickly and are then aggregated only.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("autodiff", "odeint", "model", "simulate", "train", "evaluate",
           "identify", "cli")
# Private helpers traced because a per-layer metric is defined on them.
PRIVATE = {"autodiff": ("_check_finite",), "odeint": ("_rk4_step", "_euler_step"),
           "model": ("_gru_step",), "train": ("_batch_loss",)}
METHODS = (("autodiff", "Tape", "backward"), ("autodiff", "Adam", "step"))
OPS = ("add", "sub", "hadamard", "scale", "matmul", "concat", "slice_axis",
       "reshape", "expand", "tsum", "tmean", "tanh", "sigmoid", "leaky_relu",
       "square")
SPAN_CAP = 2000
RHS = "model.triangular_rhs"
EVAL_LOSS = "train.evaluate_loss"


def obsnode_modules():
    return {m: importlib.import_module(f"obsnode.{m}") for m in MODULES}


def replace_everywhere(originals, replacement_for, extra_modules=()):
    """Point every reference to a function in `originals` (in the namespaces
    of the obsnode modules and of `extra_modules`, and in their module-level
    dicts) at ``replacement_for(fn)``. Returns the undo list of
    (container, key, original)."""
    undo = []
    for mod in list(obsnode_modules().values()) + list(extra_modules):
        ns = vars(mod)
        for key, val in list(ns.items()):
            if inspect.isfunction(val) and val in originals:
                undo.append((ns, key, val))
                ns[key] = replacement_for(val)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if inspect.isfunction(v) and v in originals:
                        undo.append((val, k, v))
                        val[k] = replacement_for(v)
    return undo


def restore(undo):
    for container, key, val in reversed(undo):
        container[key] = val


def traced_functions():
    """{original: qualified name} for the module-level functions the tracer
    wraps: the public functions of each module and the named private
    helpers."""
    funcs = {}
    for short, mod in obsnode_modules().items():
        for name, val in vars(mod).items():
            if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                continue
            if name.startswith("_") and name not in PRIVATE.get(short, ()):
                continue
            funcs[val] = f"{short}.{name}"
    return funcs


class Tracer:
    def __init__(self):
        self.run_id = None
        self.spans = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.raised = defaultdict(int)
        self.counts = defaultdict(int)   # deterministic event counters
        self.tape_nodes = []
        self._open = defaultdict(int)
        self._kept = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._undo = []
        self._methods = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        name, start, child, sid, parent = frame
        self._stack.pop()
        self._open[name] -= 1
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._kept[name] < SPAN_CAP:
            self._kept[name] += 1
            self.spans.append((sid, name, start, end, parent, self.run_id))

    def span(self, name, run_id=None):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                if run_id is not None:
                    tracer.run_id = run_id
                self.frame = tracer._enter(name)
                return self

            def __exit__(self, *exc):
                tracer._exit(self.frame)
                return False

        return _Span()

    def wrap(self, name, fn, post=None):
        tracer = self
        is_op = name.startswith("autodiff.") and name.split(".")[1] in OPS

        def wrapper(*args, **kwargs):
            if is_op:
                tracer.counts["autodiff.op_calls"] += 1
                if tracer._open[RHS]:
                    tracer.counts["model.ops_in_rhs"] += 1
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] += 1
                tracer._exit(frame)
                if post is not None:
                    post(tracer, args, None, True)
                raise
            tracer._exit(frame)
            if post is not None:
                replaced = post(tracer, args, out, False)
                if replaced is not None:
                    return replaced
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap the traced functions; `extra_modules` (the benchmark's own)
        get their imported references replaced too."""
        funcs = traced_functions()
        wrappers = {fn: self.wrap(name, fn, POST_HOOKS.get(name))
                    for fn, name in funcs.items()}
        self._undo = replace_everywhere(set(funcs), wrappers.__getitem__, extra_modules)
        mods = obsnode_modules()
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self.wrap(name, orig, POST_HOOKS.get(name)))
            self._methods.append((cls, meth, orig))

    def uninstall(self):
        restore(self._undo)
        for cls, meth, orig in self._methods:
            setattr(cls, meth, orig)
        self._undo, self._methods = [], []

    # -- results -----------------------------------------------------------

    def snapshot(self):
        """Deterministic counters: calls per traced name plus event counts."""
        snap = {f"calls.{k}": v for k, v in self.calls.items()}
        snap.update(self.counts)
        snap["tape_nodes_total"] = sum(self.tape_nodes)
        return snap

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


def diff_counts(before, after):
    keys = set(before) | set(after)
    return {k: after.get(k, 0) - before.get(k, 0) for k in keys
            if after.get(k, 0) != before.get(k, 0)}


# -- post-call hooks: deterministic counters at layer boundaries -------------

def _tape_backward(tracer, args, out, raised):
    tracer.tape_nodes.append(len(args[0]))


def _batch_loss(tracer, args, out, raised):
    where = "val" if tracer._open[EVAL_LOSS] else "train"
    tracer.counts[f"train.{where}_batches"] += 1
    if raised:
        tracer.counts[f"train.{where}_skipped"] += 1
    elif out is None:
        tracer.counts[f"train.{where}_empty"] += 1


def _enumerate_joint(tracer, args, out, raised):
    if not raised:
        tracer.counts["identify.joint_cells"] += int(out.size)


def _write_dataset(tracer, args, out, raised):
    if not raised:
        tracer.counts["simulate.bytes_written"] += sum(
            p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())


def _model_predictor(tracer, args, out, raised):
    if not raised:
        return tracer.wrap("evaluate.predict", out)
    return None


POST_HOOKS = {
    "autodiff.Tape.backward": _tape_backward,
    "train._batch_loss": _batch_loss,
    "evaluate.model_predictor": _model_predictor,
    "identify.enumerate_joint": _enumerate_joint,
    "simulate.write_dataset": _write_dataset,
}
