"""A fixed reference computation that measures the host's current speed.

The machine this benchmark was built on runs the same work at speeds that
differ by up to 1.6x, in slow periods that last from a second to several
minutes (README.md, "Steadiness and bounds").  A run that falls wholly inside
a slow period is slow on every wall-clock figure, whatever statistic the run
takes over its own repetitions.  So the worker times this computation between
its operations and scales its timings to the host speed at which one
repetition takes REFERENCE_S.  The computation does not touch `steklov` and
its inputs are fixed, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

# fastest repetition seen on the 2-vCPU Xeon machine of README.md, one BLAS thread
REFERENCE_S = 0.036
# time between samples taken between operations: about 4% of a run
INTERVAL_S = 1.0


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 300))
        self.dense = a + a.T
        grid = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60))
        self.laplacian = sp.kronsum(grid, grid, format="csc")
        self.rhs = rng.standard_normal((3600, 100))
        self.best = float("inf")
        self.last = -float("inf")

    def sample(self) -> float:
        """Time one repetition of the kinds of work the workloads do: a dense
        symmetric eigensolve, a sparse LU solve with 100 right-hand sides and
        a Python loop of dictionary updates."""
        start = time.perf_counter()
        np.linalg.eigh(self.dense)
        spl.splu(self.laplacian).solve(self.rhs)
        counts: dict = {}
        for i in range(30000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        self.last = time.perf_counter()
        elapsed = self.last - start
        self.best = min(self.best, elapsed)
        return elapsed

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the
        reference speed, from the fastest repetition so far."""
        return REFERENCE_S / self.best
