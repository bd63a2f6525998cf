"""Host-speed reference: a fixed kernel timed between the tasks of a pass.

The benchmark host is shared.  Its speed drifts by 30% or more over minutes
and swings by 20% within seconds, and CPU time drifts with wall time, so raw
timings of identical work do not repeat.  The reference kernel is benchmark
code that never calls the library, so no change to the library changes it.
It does the same kind of work as the workload it calibrates, because under
load dense BLAS and interpreter-bound code do not slow down alike:

dense   a 450x450 product and a 300x300 LU (hierarchy: dense Schur/NT work);
interp  Jacobi-style row rotations on a 16x16 array in a Python loop
        (certify: the pure-Python PSD certificate and CLI plumbing);
small   two rounds of the rotations plus 5x5 `eigvalsh` and 14-vector calls
        (vrad: tiny parametric SDPs and closed-form rays).

Cold set-up in a fresh process (imports, reading and executing modules) is
normalized by the dense kernel, which tracked it best.

A pass samples the kernel (the median of `REPEAT` runs) at its start, after
any task that ends at least `EVERY_S` after the previous sample, and at its
end.  A task's speed factor is the mean of the kernel time over the task's
interval, interpolated linearly between samples, divided by the kernel's
nominal time (its median on the quiet 2-core reference host).  A task's
latency divided by its factor is in "normalized seconds": the time the same
work takes on the reference host at its nominal speed.  In a two-minute test
on that host, over 10 s windows, kernels of these kinds cut the spread
(interquartile range over median) of CLI certify requests from 7.8% to 2.9%
and of level-1 solves from 4.3% to 1.9%; a single mixed kernel did worse on
both (4.6% and 2.9%).
"""

from __future__ import annotations

import math
import time
from typing import List, Tuple

import numpy as np
import scipy.linalg

EVERY_S = 0.1
REPEAT = 3          # a sample is the median of this many kernel runs
KERNEL = {"hierarchy": "dense", "certify": "interp", "vrad": "small"}
SETUP_KERNEL = "dense"  # tracked cold imports best (spread 6% against 11-18%)
NOMINAL_S = {"dense": 0.0034, "interp": 0.0039, "small": 0.0027}


class HostProbe:
    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(0)
        self._dense = rng.normal(size=(450, 450))
        s = rng.normal(size=(300, 300))
        self._spd = s @ s.T + np.eye(300)
        j = rng.normal(size=(16, 16))
        self._sym = j + j.T
        self._small = self._sym[:5, :5]
        self._vec = rng.normal(size=14)

    def _rotations(self) -> None:
        a = self._sym.copy()
        for p in range(15):
            for q in range(p + 1, 16):
                c, s = 0.8, 0.6
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                math.hypot(c, s)

    def kernel(self) -> float:
        """Seconds for one run of this workload's kernel."""
        start = time.perf_counter()
        if self.kind == "dense":
            self._dense @ self._dense
            scipy.linalg.lu_factor(self._spd)
        elif self.kind == "interp":
            for _ in range(8):
                self._rotations()
        else:
            for _ in range(2):
                self._rotations()
            v = self._vec
            for _ in range(200):
                np.linalg.eigvalsh(self._small)
                float(v @ v) + float(np.abs(v).max())
        return time.perf_counter() - start


class SpeedLog:
    """Kernel samples taken during one pass, with their times."""

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.samples: List[Tuple[float, float]] = []   # (time taken, kernel seconds)
        self.probe_s = 0.0                             # time spent in the kernel
        self.sample()

    def sample(self) -> None:
        runs = [self.probe.kernel() for _ in range(REPEAT)]
        self.probe_s += sum(runs)
        self.samples.append((time.perf_counter(), sorted(runs)[REPEAT // 2]))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end] relative to nominal (>1: host slow).

        The kernel time is interpolated linearly between samples and held
        constant beyond the first and last one.
        """
        times = np.array([t for t, _ in self.samples])
        refs = np.array([r for _, r in self.samples])
        if end <= start:
            return float(np.interp(start, times, refs)) / self.probe.nominal_s
        inner = times[(times > start) & (times < end)]
        grid = np.concatenate(([start], inner, [end]))
        curve = np.interp(grid, times, refs)
        mean = float(np.sum(0.5 * (curve[1:] + curve[:-1]) * np.diff(grid))) / (end - start)
        return mean / self.probe.nominal_s
