"""Two fixed pure-Python kernels that measure how fast the machine runs
Python right now.

The benchmark's machine is shared: the speed of the same code changes by
up to a half, within seconds and over minutes, as other tenants load the
processor, and object-heavy code (tuples, dicts, Fractions) slows about
half as much again as tight integer arithmetic.  The worker times both
kernels every INTERVAL_S seconds between operations, and scales each
operation's time by REFERENCE_S / (median time of the matching kernel
within WINDOW_S of the operation).  Times are thus given at the speed the
machine has when each kernel takes its REFERENCE_S.  An operation is
matched with the object kernel unless its kind is marked as arithmetic.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
WINDOW_S = 0.5
MIN_LOCAL = 5
# kernel seconds at the reference speed: the median times on the reference
# machine (README, "Reference figures")
REFERENCE_S = {"object": 0.0025, "arith": 0.0018}


def object_kernel() -> int:
    """Tuple and dict traffic and Fraction arithmetic."""
    acc = {}
    x = Fraction(1)
    for i in range(600):
        t = (i % 11, i % 7, i % 5)
        acc[t] = acc.get(t, 0) + i
        x = x * Fraction(i % 7 + 1, i % 5 + 1)
        if i % 50 == 0:
            x = Fraction(1)
    return len(acc)


def arith_kernel() -> int:
    """Remainders of an 11-digit integer in a tight loop."""
    s = 0
    for q in range(2, 20000):
        s += 100000000003 % q
    return s


KERNELS = {"object": object_kernel, "arith": arith_kernel}


def spot_scale(samples: int = 15) -> float:
    """The object-kernel factor right now, from a short burst of samples."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        object_kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S["object"] / statistics.median(times)


class Gauge:
    """Times of both kernels sampled at most every INTERVAL_S seconds, with
    the time each was taken."""

    def __init__(self):
        self.at = {k: [] for k in KERNELS}        # perf_counter() mid-sample
        self.samples = {k: [] for k in KERNELS}   # seconds per kernel run
        self._next = 0.0

    def tick(self) -> None:
        if time.perf_counter() < self._next:
            return
        for name, kernel in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at[name].append((t0 + t1) / 2)
            self.samples[name].append(t1 - t0)
        self._next = time.perf_counter() + INTERVAL_S

    def scale(self) -> float:
        """The object-kernel factor of the whole run."""
        return REFERENCE_S["object"] / statistics.median(self.samples["object"])

    def local_scale(self, start: float, end: float, work: str) -> float:
        """The factor that converts a time measured between start and end to
        the reference speed: from the samples of the kernel for that work
        taken within WINDOW_S of the interval, or the MIN_LOCAL nearest."""
        at = self.at[work]
        lo = bisect.bisect_left(at, start - WINDOW_S)
        hi = bisect.bisect_right(at, end + WINDOW_S)
        while hi - lo < MIN_LOCAL and (lo > 0 or hi < len(at)):
            if lo > 0 and (hi == len(at) or start - at[lo - 1] < at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S[work] / statistics.median(self.samples[work][lo:hi])
