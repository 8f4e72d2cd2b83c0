"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by up to 2x over seconds
(measured with this kernel: per-second medians from 6.2 to 11.6 ms on
identical work). The benchmark therefore times a fixed pure-Python kernel of
the same kind as the library's hot loop, exact `Fraction` row updates,
around the operations it measures, and reports each operation's time scaled
to the speed at which this kernel takes `NOMINAL_S`. The raw wall times are
reported next to the scaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.001
# `Clock.tick` splits at most this often; finer splits follow the drift
# more closely (the set-up time spread fell from about 24 % to 6-12 %
# between single runs when this went from 50 to 10 ms).
TICK_S = 0.01

_ROW = [Fraction(i, 7 + i) for i in range(60)]
_PIVOT = [Fraction(2 * i + 1, 5 + i) for i in range(60)]
_FACTOR = Fraction(3, 11)


def _kernel() -> None:
    row = _ROW
    for _ in range(6):
        row = [u - _FACTOR * v for u, v in zip(row, _PIVOT)]


def calibrate() -> float:
    """Seconds the kernel takes now: the faster of two runs, so that a
    one-off interruption does not count as a slow machine."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Clock:
    """Scaled time of a sequence of steps that are too long to time as one.

    `split()` closes the current step, times the kernel and starts the next
    step; each step is scaled by the mean of the kernel samples just before
    and after it. `tick()` splits only once TICK_S has passed, so a caller
    can tick after every small unit of work.
    """

    def __init__(self):
        self.scaled = 0.0
        self.raw = 0.0
        self._kernel = calibrate()
        self._start = time.perf_counter()

    def split(self) -> None:
        raw = time.perf_counter() - self._start
        kernel = calibrate()
        self.scaled += raw * NOMINAL_S / ((self._kernel + kernel) / 2)
        self.raw += raw
        self._kernel = kernel
        self._start = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._start > TICK_S:
            self.split()
