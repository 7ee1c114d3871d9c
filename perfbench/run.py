#!/usr/bin/env python3
"""obsnode benchmark: one process, one closed-loop client, four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload cancer-train --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A fuller record (versions, BLAS pin, sample counts, checks, counters) is
written to ``perfbench/out/<workload>-seed<n>-trace<t>/result.json``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# numpy reads these when it loads, so they are set before anything imports it.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("cancer-train", "semi-train", "cancer-forecast", "cohort-simulate")


def pin_blas():
    prior = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:
        os.environ[v] = "1"
    return prior


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=14)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    prior = pin_blas()
    if not (SRC / "obsnode" / "__init__.py").is_file():
        print(f"perfbench: no obsnode sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy and obsnode, after the pin
    return bench.run(args, prior, ROOT, OUT)


# The end-to-end figures under their per-workload names, as
# (name, keys into the run's result.json, unit). BENCHMARK.json holds the
# generic metrics every workload reports; these say what each one is here.
COMMON = [("setup_s", ("metrics", "setup_s", "value"), "s"),
          ("peak_rss_mb", ("metrics", "peak_rss_mb", "value"), "MB")]
TRAIN = [("train_units_per_s", ("metrics", "units_per_s", "value"), "1/s"),
         ("val_loss", ("quality", "val_loss"), "loss")]
NAMED = {
    "cancer-train": TRAIN,
    "semi-train": TRAIN,
    "cancer-forecast": [("forecast_p50_ms", ("samples", "aux", "p50_ms"), "ms"),
                        ("forecast_p90_ms", ("samples", "aux", "p90_ms"), "ms"),
                        ("grid_units_per_s", ("metrics", "units_per_s", "value"), "1/s"),
                        ("grid_rmse", ("quality", "grid_rmse"), "scaled")],
    "cohort-simulate": [("sim_units_per_s", ("metrics", "units_per_s", "value"), "1/s"),
                        ("identify_instances_per_s",
                         ("metrics", "aux_units_per_s", "value"), "1/s")],
}


def named_figures(workload, record):
    """[(name, value, unit)] of one untraced run, fail_ratio last."""
    rows = []
    for name, keys, unit in COMMON + NAMED[workload]:
        value = record
        for k in keys:
            value = value[k]
        if name.startswith("forecast_p"):
            unit += f" (n={record['samples']['aux']['n']})"
        rows.append((name, value, unit))
    rows.append(("fail_ratio", record["failed"] / record["attempted"], "failed/attempted"))
    return rows


def run_all(args):
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(lines[-1])))
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        if args.trace:
            figures = [(m, v["value"], v["unit"]) for m, v in res["metrics"].items()]
        else:
            record = json.loads((OUT / f"{name}-seed{args.seed}-trace0"
                                 / "result.json").read_text())
            figures = named_figures(name, record)
        for metric, value, unit in figures:
            print(f"  {metric:42s} {value:.6g} {unit}")
    summary = {n: r for n, r in rows}
    print(json.dumps(summary))
    return 0 if all(r["correct"] for _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
