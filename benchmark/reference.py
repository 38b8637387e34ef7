"""A fixed piece of CPU work that times the machine, not botopt.

On a shared host the speed of one core moves by 30-60% for minutes at a
time, as other tenants' load comes and goes, and every process on it slows
alike. An untraced run times this kernel in a short burst before its first
child process and after each one, on the core the children run on, and
scales each child's times by ``NOMINAL_S`` over the mean kernel time of the
two bursts around it, so that the same work reads about the same in a slow
and in a fast phase.
The kernel does not use botopt: a change to botopt moves the scaled times by
the same share as the raw ones, which the run record keeps.

    python3 benchmark/reference.py   # prints the kernel's time per call
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one kernel call takes at the speed the scaled times refer to:
# the median, over one set of 30 untraced runs on a 2-vCPU Intel Xeon VM, of
# the kernel's mean time in a run (0.0399-0.0406 s by workload), so that
# scaled and raw times read alike on that machine. Two runs compare through
# the same constant.
NOMINAL_S = 0.040


class Reference:
    """The kernel's inputs and its times collected over one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.x = rng.random((20_000, 10))
        self.y = (rng.random(20_000) < 0.1).astype(float)
        self.big = rng.random(1_000_000)
        self.bursts: list[float] = []  # mean kernel time of each burst

    def kernel(self) -> float:
        """A root-node split search on 20,000 x 10 floats, the shape of
        tune-botiot (a stable argsort, a gather and a cumulative sum per
        column), then one sort of 1,000,000 floats, which streams through
        memory."""
        total = 0.0
        for j in range(self.x.shape[1]):
            order = np.argsort(self.x[:, j], kind="stable")
            total += np.cumsum(self.y[order])[-1] + self.x[order[:5_000]].sum()
        return total + np.sort(self.big)[0]

    def burst(self, calls: int = 8) -> list[float]:
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.bursts.append(statistics.fmean(times))
        return times

    def scale_last(self) -> float:
        """NOMINAL_S over the mean of the last two bursts, which bracket the
        child process that ran between them: below 1 when the machine ran
        slower than the reference speed around it."""
        return NOMINAL_S / statistics.fmean(self.bursts[-2:])


if __name__ == "__main__":
    times = Reference().burst(300)
    q = statistics.quantiles(times, n=10)
    print(f"calls {len(times)}  fastest tenth {q[0]:.6f} s  median {q[4]:.6f} s  "
          f"mean {statistics.fmean(times):.6f} s")
