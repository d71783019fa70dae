"""A gauge of the machine's speed while a repetition runs.

On a shared host the speed of the same Python code drifts by tens of percent
within seconds, and by up to a factor of 2 within minutes.  The gauge times
a fixed reference computation every INTERVAL_S of wall time from a SIGALRM
handler, which runs in the main thread between bytecodes, plus once before
and once after.  Dividing the run's own time by the mean reference time
cancels most of the drift.  ``busy_s`` is the handler's time, which callers
take out of their timings.  A short span such as the set-up is gauged by
one sample before and one after it.

The reference is a sparse product of two polynomials with rational
coefficients: the same mix of dict, tuple and Fraction work as the package's
series.  It tracked the drift better than a plain integer loop did.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import mean
from time import perf_counter

INTERVAL_S = 0.2
UNIT_PRODUCTS = 100  # one "ref" is the time of this many reference products
# A fixed nominal time of one reference product, about its median on the
# 2-vCPU Linux host (Python 3.11.7) where the benchmark was written.  Only
# its constancy matters: it turns a time measured at any speed into seconds
# at one fixed speed.
NOMINAL_PRODUCT_S = 0.003

_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}


def reference_product_s():
    t0 = perf_counter()
    out = {}
    for (i, j), a in _POLY.items():
        for (k, m), b in _POLY.items():
            key = (i + k, j + m)
            v = a * b
            s = out.get(key)
            out[key] = v if s is None else s + v
    return perf_counter() - t0


def at_nominal_speed(seconds, samples):
    """A duration measured while the reference product took ``samples``
    seconds, rescaled to the nominal speed."""
    return seconds * NOMINAL_PRODUCT_S / mean(samples)


class SpeedGauge:
    def __enter__(self):
        self.samples = [reference_product_s()]
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_product_s())
        self.busy_s += perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_product_s())
        return False

    def in_ref(self, seconds):
        """A duration in units of the reference computation's time at the
        speed the gauge saw."""
        return seconds / (mean(self.samples) * UNIT_PRODUCTS)
