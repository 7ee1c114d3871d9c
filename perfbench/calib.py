"""Host-speed calibration: a fixed reference kernel sampled on a timer.

On a shared virtual machine the same code runs up to 1.8 times slower for
seconds to minutes at a time, when another tenant shares the physical core
(see README.md). A small fixed numpy kernel, made of the same kind of work as
the workloads (small matmuls, elementwise ops and finiteness scans, each a
separate Python-level call), slows by nearly the same factor. Sampling it on
an interval timer while the timed calls run measures the host's speed during
each call; a call's wall time is then scaled to the reference speed:

    calibrated = (wall - kernel time inside the call) * REF_KERNEL_S / mean kernel time

The kernel is part of the benchmark, not of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.01
# About the kernel's time with the physical core to itself, on the host the
# bounds were set on (2-vCPU KVM guest, Intel Xeon at 2.0 GHz).
REF_KERNEL_S = 1.1e-4
KERNEL_STEPS = 8


class Calibrator:
    """Samples the reference kernel every INTERVAL_S while running."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x0 = rng.normal(size=(25, 48))
        self._w = rng.normal(size=(48, 48)) / 7.0
        self.ends, self.durations = [], []

    def sample(self):
        t = time.perf_counter()
        x = self._x0
        for _ in range(KERNEL_STEPS):
            np.isfinite(x).all()
            x = np.tanh(x @ self._w + 0.1)
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - t)

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """Stop the running timer, e.g. while a child process runs, and take
        one sample on each side instead."""
        self.stop()
        self.sample()
        try:
            yield
        finally:
            self.sample()
            self.start()

    def calibrate(self, start, end):
        """Calibrated seconds of the interval [start, end]: its wall time
        less the samples taken inside it, scaled by REF_KERNEL_S over the
        mean of those samples. An interval shorter than the timer's period
        uses the nearest sample on each side."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = sum(self.durations[lo:hi])
        near = self.durations[max(lo - 1, 0):hi + 1]
        if not near:
            raise RuntimeError("no calibration samples")
        return (end - start - inside) * REF_KERNEL_S * len(near) / sum(near)
