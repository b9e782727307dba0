"""Machine-speed calibration for the timing metrics.

The benchmark's host is shared: the same batch of operations runs up to a
third slower or faster for seconds to minutes at a time, and CPU time
follows wall time. A fixed slice of work like cohtrack's own (small numpy
operations, a short scipy integration, number formatting), run between the
timed operations, slows down with it. Each timing is divided by the
slowdown the slices measured around it, so a timing reads as seconds at the
reference speed `REF_SLICE_S`, a round figure near the slice's time on the
machine named in README.md.

The slices do not touch cohtrack, so a change to cohtrack moves the timings
in full; a change that slowed the slices as well (say, by leaving a busy
thread behind) would be partly hidden.
"""

import math
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

REF_SLICE_S = 4.0e-3       # near the slice's time on the machine in README.md

_M = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.1, 0.0],
               [0.0, 0.0, -0.1, 1.0], [0.0, 0.0, -1.0, -0.1]])


def _rhs(t, y):
    return _M @ y


def _slice() -> float:
    """Seconds taken by one slice of fixed work, about 4 ms between operations."""
    t = perf_counter()
    a, s = np.zeros(4), 0.0
    for _ in range(700):
        a = a * 0.5 + 1.0
        s += float(a[0])
    solve_ivp(_rhs, (0.0, 1.0), np.ones(4), rtol=1e-8, atol=1e-10)
    ",".join(f"{i * 0.1234567:.17g},{math.sqrt(i):.6e}" for i in range(500))
    return perf_counter() - t


class Meter:
    """Calibration seconds and iterations accumulated over one stretch of work."""

    def __init__(self):
        self.seconds = 0.0
        self.slices = 0

    def run(self, min_seconds: float) -> None:
        """Run whole slices, at least one, until `min_seconds` have passed."""
        spent = 0.0
        while True:
            spent += _slice()
            self.slices += 1
            if spent >= min_seconds:
                break
        self.seconds += spent

    def slowdown(self) -> float:
        """How many times slower than the reference speed the slices ran."""
        return self.seconds / self.slices / REF_SLICE_S


def slowdown_now(seconds: float) -> float:
    """The slowdown measured over about `seconds` of calibration, from now."""
    meter = Meter()
    meter.run(seconds)
    return meter.slowdown()
