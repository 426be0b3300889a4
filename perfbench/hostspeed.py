"""Reference loop that tracks the speed of a shared host.

The loop is a fixed product of two sparse polynomials in two variables with
``Fraction`` coefficients in dicts keyed by exponent tuples, the kind of
work ``starquant`` does, written with the standard library only.  Nothing
here imports ``starquant``, so an edit to the package cannot change the
loop's cost; only the host's speed can.

On a shared host the speed of a core drifts by up to a factor of two over
seconds to minutes, as other tenants load it, and the loop and the jobs
slow down together, the jobs somewhat less: regressing the log of job
times on the log of loop times, interleaved over four minutes per
workload, gave slopes of 0.4-0.7 that noise in the loop times biases low,
and scaling with an exponent of 0.75 left the least spread between
25-second windows on all four workloads together (``SENSITIVITY``).

``REFERENCE_S`` is about the loop's time on a quiet 2-core host with Python
3.11; a time multiplied by ``(REFERENCE_S / sample) ** SENSITIVITY`` is the
time the same work would take while the host runs at that speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005
SENSITIVITY = 0.75
# share of the measured time spent running the loop
SHARE = 0.05
# the fewest loop samples one factor rests on
WINDOW = 5

_LEFT = {(i, 5 - i % 6): Fraction(i + 1, 2 * i + 3) for i in range(12)}
_RIGHT = {(i % 4, i): Fraction(3 - i, i + 2) for i in range(12)}


def sample() -> float:
    """Seconds one pass of the reference loop takes now."""
    start = time.perf_counter()
    for _ in range(10):
        product = {}
        for (a, b), x in _LEFT.items():
            for (c, d), y in _RIGHT.items():
                key = (a + c, b + d)
                product[key] = product.get(key, 0) + x * y
    return time.perf_counter() - start


class HostClock:
    """Scales measured times to the reference speed of the host.

    After each measured interval it runs the reference loop for ``SHARE`` of
    that interval, carrying the rest forward.  The median of the samples
    taken just before and just after it (the last ``WINDOW`` samples, if
    those are fewer) sets the factor that scales the interval.
    """

    def __init__(self):
        self.owed = 0.0
        self.samples = []
        self.before = 0  # index of the first sample taken after the last interval

    def scale(self, seconds: float) -> float:
        """The factor that turns ``seconds`` just measured into reference time."""
        after = len(self.samples)
        self.owed += SHARE * seconds
        while self.owed > 0 or len(self.samples) < WINDOW:
            taken = sample()
            self.samples.append(taken)
            self.owed -= taken
        around = self.samples[min(self.before, len(self.samples) - WINDOW):]
        self.before = after
        return factor(around)


def factor(samples: list) -> float:
    """The factor that turns a time measured while the loop took ``samples``
    into reference time."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY
