"""Runs one workload: inputs, set-up, timed phases, checks, metrics, record."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

import obsnode
from calib import INTERVAL_S, REF_KERNEL_S, Calibrator
from probes import run_probes
from tracer import MODULES, OPS, Tracer, diff_counts
import workloads
from workloads import WORKLOADS

SETUP_REPS = 3
TRACE_MAIN_REPS = 2


class Phase:
    """Calls of one kind: per call, its parts, result and (start, end) span
    (None if it failed) and, traced, counter deltas."""

    def __init__(self, label):
        self.label = label
        self.parts, self.results, self.spans = [], [], []
        self.counts, self.errors = [], []

    @property
    def attempted(self):
        return len(self.parts)

    def call(self, fn, st, tracer=None):
        i = self.attempted
        before = tracer.snapshot() if tracer else None
        span = tracer.span(f"bench.{self.label}", run_id=f"{self.label}-{i}") \
            if tracer else contextlib.nullcontext()
        t = perf_counter()
        try:
            with span:
                parts, result = fn(st, i)
        except Exception as e:  # a failed call is counted, the run goes on
            self.errors.append(f"{self.label} {i}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            parts = result = span = None
        else:
            span = (t, perf_counter())
            parts = [(key, units, span[1] - t if secs is None else secs)
                     for key, units, secs in parts]
        self.parts.append(parts)
        self.results.append(result)
        self.spans.append(span)
        if tracer:
            self.counts.append(diff_counts(before, tracer.snapshot()))

    def ok_walls(self):
        return self.latencies(lambda start, end: end - start)

    def throughput(self, seconds):
        """Units over seconds of all completed calls, where ``seconds(start,
        end)`` gives the seconds of a call's span; parts timed inside a call
        are scaled with it."""
        units = secs = 0.0
        for parts, span in zip(self.parts, self.spans):
            if parts is not None:
                units += sum(u for _, u, _ in parts)
                secs += (seconds(*span) / (span[1] - span[0])
                         * sum(sec for _, _, sec in parts))
        return units / secs

    def latencies(self, seconds):
        return [seconds(*span) for span in self.spans if span is not None]


def run_rounds(wl, st, main_min, main_max, aux_min, seconds, tracer=None,
               after_round=None):
    """Closed loop of rounds: one main call, then a chunk of aux requests.

    Interleaving spreads both kinds of call over the whole run: the host's
    speed changes for seconds at a time (see README.md), and a phase
    confined to a short window lands in one state. Rounds stop at a
    repetition boundary once the minimum repetitions and aux requests are
    done and `seconds` have passed, or at `main_max`. `after_round` runs
    after each round, outside the time budget.

    Every main call starts from a collected heap: a recorded tape holds
    reference cycles, so the cyclic collector would otherwise run at points
    that differ from call to call (it moved a train() call's time by up to a
    third). Aux requests record no tape and skip the collection, which costs
    tens of ms with the heap a run holds."""
    main, aux = Phase("main"), Phase("aux")
    steps = wl.main_steps
    chunk = math.ceil(aux_min / (main_min * steps) / wl.aux_step) * wl.aux_step
    start = perf_counter()
    while True:
        reps = main.attempted // steps
        if main.attempted % steps == 0 and (
                reps >= main_max or (reps >= main_min and aux.attempted >= aux_min
                                     and perf_counter() - start >= seconds)):
            return main, aux
        gc.collect()
        main.call(wl.main, st, tracer)
        for _ in range(chunk):
            aux.call(wl.aux, st, tracer)
        if after_round is not None:
            t = perf_counter()
            after_round()
            start += perf_counter() - t


def by_key(parts):
    out = {}
    for key, _, secs in parts:
        out.setdefault(key, []).append(secs)
    return out


def cli_startup(root):
    """(start, end) of a fresh interpreter importing the CLI: the start-up
    every ``obsnode`` command pays."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import obsnode.cli"], cwd=root,
                          env=env, capture_output=True, text=True)
    span = (t, perf_counter())
    if proc.returncode != 0:
        raise RuntimeError(f"importing obsnode.cli failed:\n{proc.stderr}")
    return span


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = root / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args, prior, root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_thread_pin": {v: os.environ[v] for v in prior},
        "blas_env_before_pin": prior, "git_commit": git_commit(root),
        "obsnode": obsnode.__file__, "client": "one closed-loop client, one process",
    }


def percentiles(values_s):
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    ms = np.asarray(values_s) * 1e3
    out = {"n": int(ms.size), "p50_ms": float(np.percentile(ms, 50))}
    for p in (90, 99):
        if ms.size * (100 - p) / 100 >= 10:
            out[f"p{p}_ms"] = float(np.percentile(ms, p))
    return out


def evaluate_checks(wl, st, main, aux):
    main_out = [r for r in main.results if r is not None]
    if not main_out:
        return [("main call produced a result", False)]
    return wl.checks(main_out, [r for r in aux.results if r is not None], st)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(args, prior, root, out_root):
    wl_cls = WORKLOADS[args.workload]
    out_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    wl = wl_cls(out_dir / "work", args.seed)
    record = {"run": run_record(args, prior, root),
              "units": {"main": wl.main_units, "aux": wl.aux_units}}

    t = perf_counter()
    wl.prepare()
    record["prepare_s"] = perf_counter() - t

    if args.trace:
        ok, result = run_traced(wl, out_dir)
    else:
        ok, result = run_untraced(wl, args, root)
    record.update(result)
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    shutil.rmtree(out_dir / "work", ignore_errors=True)
    if not ok:
        print("perfbench: no successful calls, no metrics", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for name, passed in result["checks"]:
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def tally(phases, checks):
    attempted = sum(p.attempted for p in phases) + len(checks)
    failed = sum(len(p.errors) for p in phases) + sum(1 for _, ok in checks if not ok)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "errors": [e for p in phases for e in p.errors], "checks": checks}


def run_untraced(wl, args, root):
    cal = Calibrator()
    setups = []  # per set-up: the spans of its start-up and in-process parts

    def setup_once():
        with cal.paused():  # the child process runs without the timer
            startup = cli_startup(root)
        gc.collect()
        t = perf_counter()
        state = wl.setup()
        setups.append((startup, (t, perf_counter())))
        return state

    def more_setups():
        # The later set-ups run between the first rounds, so set-up and the
        # timed calls both sample more of the run; their state is dropped.
        if len(setups) < SETUP_REPS:
            setup_once()

    cal.start()
    try:
        st = setup_once()
        main, aux = run_rounds(wl, st, wl.main_min, wl.main_max, wl.aux_min,
                               args.seconds, after_round=more_setups)
        while len(setups) < SETUP_REPS:
            setup_once()
    finally:
        cal.stop()
    if not main.ok_walls() or not aux.ok_walls():
        return False, tally([main, aux], [])
    checks = evaluate_checks(wl, st, main, aux)
    res = tally([main, aux], checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(seconds):
        return {
            "setup_s": metric(statistics.median(sum(seconds(*p) for p in parts)
                                                for parts in setups), "s"),
            "units_per_s": metric(main.throughput(seconds), "1/s"),
            "aux_units_per_s": metric(aux.throughput(seconds), "1/s"),
            "aux_p50_ms": metric(statistics.median(aux.latencies(seconds)) * 1e3, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    res["metrics"] = figures(cal.calibrate)
    res["raw_metrics"] = figures(lambda start, end: end - start)
    res["samples"] = {
        "setup": {"n": len(setups),
                  "cli_startup_s": [b - a for (a, b), _ in setups],
                  "in_process_s": [b - a for _, (a, b) in setups]},
        "main": {"calls": main.attempted, "walls_s": main.ok_walls(),
                 "calibrated_s": main.latencies(cal.calibrate),
                 "seconds_by_part": by_key([x for p in main.parts if p is not None
                                            for x in p])},
        "aux": dict(percentiles(aux.latencies(cal.calibrate)),
                    requests=aux.attempted, walls_s=aux.ok_walls()),
        "calibration": {"n": len(cal.durations), "interval_s": INTERVAL_S,
                        "ref_kernel_s": REF_KERNEL_S,
                        "kernel_s_p10_p50_p90": np.percentile(cal.durations,
                                                              [10, 50, 90]).tolist(),
                        "sample_ends": cal.ends, "sample_s": cal.durations,
                        "main_spans": main.spans, "aux_spans": aux.spans},
    }
    if "seconds" in st:
        res["samples"]["main_parts"] = st["seconds"]
    res["quality"] = quality(wl, main, aux)
    return True, res


def quality(wl, main, aux):
    main_out = [r for r in main.results if r is not None]
    return wl.quality(main_out, aux.results) if main_out else {}


def one_pass(wl, tracer=None):
    t = perf_counter()
    span = tracer.span("bench.setup", run_id="setup") if tracer else contextlib.nullcontext()
    with span:
        st = wl.setup()
    main, aux = run_rounds(wl, st, TRACE_MAIN_REPS, TRACE_MAIN_REPS, wl.trace_aux, 0.0,
                           tracer)
    return st, main, aux, perf_counter() - t


def run_traced(wl, out_dir):
    st0, main0, aux0, untraced_s = one_pass(wl)
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        st1, main1, aux1, traced_s = one_pass(wl, tracer)
    finally:
        tracer.uninstall()
    if not main1.ok_walls() or not aux1.ok_walls():
        return False, tally([main0, aux0, main1, aux1], [])
    tracer.write(out_dir / "spans.jsonl")

    # each main call against the same step of the first repetition
    steps = wl.main_steps
    counts = main1.counts
    mismatched = sorted({k for i in range(steps, len(counts))
                         for k in set(counts[i]) | set(counts[i % steps])
                         if counts[i].get(k) != counts[i % steps].get(k)})
    checks = [(f"untraced: {n}", ok) for n, ok in evaluate_checks(wl, st0, main0, aux0)]
    checks += [(f"traced: {n}", ok) for n, ok in evaluate_checks(wl, st1, main1, aux1)]
    checks.append(("traced outputs equal untraced outputs",
                   [wl.fingerprint(r) for r in main0.results if r is not None]
                   == [wl.fingerprint(r) for r in main1.results if r is not None]))
    checks.append(("deterministic counters repeat exactly across main calls",
                   not mismatched))
    res = tally([main0, aux0, main1, aux1], checks)

    probes, probe_samples = run_probes()
    metrics = layer_metrics(tracer)
    metrics.update(probes)
    metrics.update({
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.self_cover_ratio": (sum(tracer.self_time.values()) / traced_s, "ratio"),
        "trace.spans_kept": (len(tracer.spans), "count"),
        "trace.counter_mismatches": (len(mismatched), "count"),
    })
    res["metrics"] = {k: metric(v, u) for k, (v, u) in metrics.items()}
    res["samples"] = {"probes": probe_samples, "main_reps": TRACE_MAIN_REPS,
                      "aux_requests": wl.trace_aux}
    res["counters_per_main_call"] = main1.counts
    res["counter_mismatches"] = mismatched
    res["layers"] = {n: {"calls": tracer.calls[n], "total_s": tracer.total[n],
                         "self_s": tracer.self_time[n], "raised": tracer.raised[n]}
                     for n in sorted(tracer.calls)}
    res["quality"] = quality(wl, main0, aux0)
    return True, res


def layer_metrics(tr: Tracer):
    """Per-layer metrics from the traced pass: ``{name: (value, unit)}``."""
    calls, total, self_t, counts = tr.calls, tr.total, tr.self_time, tr.counts
    ops = [f"autodiff.{k}" for k in OPS]
    steps = ("odeint._rk4_step", "odeint._euler_step")
    nodes = tr.tape_nodes
    backward_s = total["autodiff.Tape.backward"]
    rhs_calls = calls["model.triangular_rhs"]
    batches = counts["train.train_batches"]
    m = {
        "autodiff.op_calls": (sum(calls[o] for o in ops), "count"),
        "autodiff.op_self_s": (sum(self_t[o] for o in ops), "s"),
        "autodiff.check_finite_s": (total["autodiff._check_finite"], "s"),
        "autodiff.tape_nodes_p50": (float(np.median(nodes)) if nodes else 0.0, "count"),
        "autodiff.tape_nodes_max": (max(nodes, default=0), "count"),
        "autodiff.backward_s": (backward_s, "s"),
        "autodiff.backward_ns_per_node": (backward_s / sum(nodes) * 1e9 if nodes else 0.0, "ns"),
        "autodiff.adam_steps": (calls["autodiff.Adam.step"], "count"),
        "autodiff.adam_step_s": (total["autodiff.Adam.step"], "s"),
        "odeint.integrate_calls": (calls["odeint.integrate"], "count"),
        "odeint.solver_steps": (sum(calls[s] for s in steps), "count"),
        "odeint.integrate_s": (total["odeint.integrate"], "s"),
        "odeint.step_self_s": (sum(self_t[s] for s in steps), "s"),
        "model.rhs_calls": (rhs_calls, "count"),
        "model.ops_per_rhs": (counts["model.ops_in_rhs"] / rhs_calls if rhs_calls else 0.0, "count"),
        "model.rhs_self_s": (self_t["model.triangular_rhs"], "s"),
        "model.rhs_us_per_call": (total["model.triangular_rhs"] / rhs_calls * 1e6
                                  if rhs_calls else 0.0, "us"),
        "model.encode_calls": (calls["model.encode"], "count"),
        "model.gru_steps": (calls["model._gru_step"], "count"),
        "model.encode_s": (total["model.encode"], "s"),
        "model.forecast_s": (total["model.forecast"], "s"),
        "train.batches": (batches, "count"),
        "train.skipped_batches": (counts["train.train_skipped"], "count"),
        "train.empty_batches": (counts["train.train_empty"], "count"),
        "train.useful_batch_ratio": (calls["autodiff.Adam.step"] / batches if batches else 0.0,
                                     "ratio"),
        "train.masked_loss_s": (total["train.masked_loss"], "s"),
        "train.val_s": (total["train.evaluate_loss"], "s"),
        "evaluate.rmse_grid_s": (total["evaluate.rmse_grid"], "s"),
        "evaluate.predict_calls": (calls["evaluate.predict"], "count"),
        "simulate.cancer_cohort_s": (total["simulate.generate_cancer_dataset"], "s"),
        "simulate.semi_cohort_s": (total["simulate.generate_semi_synthetic"], "s"),
        "simulate.write_dataset_s": (total["simulate.write_dataset"], "s"),
        "simulate.read_dataset_s": (total["simulate.read_dataset"], "s"),
        "simulate.bytes_written": (counts["simulate.bytes_written"], "B"),
        "identify.enumerate_joint_calls": (calls["identify.enumerate_joint"], "count"),
        "identify.enumerate_joint_s": (total["identify.enumerate_joint"], "s"),
        "identify.joint_cells": (counts["identify.joint_cells"], "count"),
        "identify.adjustment_s": (total["identify.adjustment_estimate"], "s"),
        "identify.truth_s": (total["identify.interventional_truth"], "s"),
        "bench.self_s": (sum(v for n, v in self_t.items() if n.startswith("bench.")), "s"),
    }
    for k in OPS:
        m[f"autodiff.op_calls.{k}"] = (calls[f"autodiff.{k}"], "count")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (sum(v for n, v in self_t.items() if n.startswith(mod + ".")), "s")
    return m
