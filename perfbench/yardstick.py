"""A fixed reference computation that tells how fast the machine runs right now.

On a shared host the speed a process gets drifts by up to a factor of two,
over spans from under a second to minutes, and it moves interpreter and
compiled code alike. A run's median wall time per job then mostly records
which speed the run happened to get. The benchmark therefore times this
yardstick right before and right after every timed job and divides the job's
wall seconds by the mean of the two. Drift slower than a job cancels out of
the ratio, and the median over a run's jobs averages out the rest.

A ratio is reported in seconds by multiplying it by ``REFERENCE_S``, the
yardstick's time on the machine the benchmark was tuned on (a 2-vCPU Xeon VM
at 2.1 GHz, CPython 3.11, numpy 2.4, scipy 1.17). A normalized time is thus
"seconds on that machine at its usual speed". The yardstick is the
benchmark's own code: a change to the program cannot move it.

The work mixes what the CLI's jobs do: a pure-Python dict loop, sparse
matrix-vector products and dense vector arithmetic, about 20 ms each. Its
arrays take about 4 MB, which the worker's peak RSS includes.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.06


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = sp.random(20_000, 20_000, density=3e-4, random_state=rng, format="csr")
        self.vector = rng.random(20_000)
        self.a, self.b = rng.random(100_000), rng.random(100_000)
        self.c = np.empty_like(self.a)
        self.work()  # untimed: page in the arrays

    def work(self) -> float:
        counts: dict[int, float] = {}
        for i in range(90_000):
            counts[i % 1000] = counts.get(i % 1000, 0.0) + i * 0.5
        for _ in range(80):
            y = self.matrix @ self.vector
        total = 0.0
        for _ in range(60):
            np.multiply(self.a, self.b, out=self.c)
            total += self.c.sum()
        return counts[999] + y[0] + total

    def __call__(self) -> float:
        """Seconds the yardstick takes now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between yardsticks of ``before`` and ``after``
    seconds, in seconds at the reference speed."""
    return seconds / ((before + after) / 2) * REFERENCE_S
