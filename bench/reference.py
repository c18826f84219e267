"""Machine-speed reference for the end-to-end timings.

A virtual machine that shares its cores with other tenants drifts in speed:
on a shared 2-vCPU Xeon at 2.1 GHz with Python 3.11.7, one fixed
pure-Python loop took anywhere from 66 to 123 ms within a minute, and whole
25-second runs of one workload moved together by 30-40% between minutes.
No regression bound of 25% or less survives that in raw seconds.

So the benchmark runs a fixed reference kernel between jobs and reports
reference seconds: measured seconds x REF_SECONDS / (kernel seconds measured
right before and right after), that is, the time on a machine where the
kernel takes REF_SECONDS.  The kernel repeats the inner steps the engine
spends its time in: a Fraction multiply-subtract across a row (exact
elimination over Q) and multiply-add modulo a large prime (over F_p).  It
uses nothing from dgskew, so no change to the engine can move it.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from time import perf_counter

REF_SECONDS = 0.04
INTERVAL = 0.4       # at most this much job time between two samples

_PRIME = 2147483659
_ROW = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(64)]
_PIVOT = [Fraction(i % 3 + 1, i % 4 + 2) for i in range(64)]


def kernel(reps: int = 160):
    ints = list(range(1, 65))
    for k in range(reps):
        f = _PIVOT[k % 64]
        _ = [x - f * y for x, y in zip(_ROW, _PIVOT)]
        ints = [(a * 48271 + k) % _PRIME for a in ints]


class SpeedProbe:
    """Kernel samples over a run, and the scale factor for any interval."""

    def __init__(self):
        self.starts, self.ends, self.seconds = [], [], []

    def sample(self):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.seconds.append(t1 - t0)

    def sample_if_due(self):
        if not self.ends or perf_counter() - self.ends[-1] >= INTERVAL:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REF_SECONDS over the mean of the last sample ending before t0 and
        the first sample starting after t1."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        picks = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        return REF_SECONDS * len(picks) / sum(picks)
