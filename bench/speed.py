"""Machine-speed correction for the end-to-end times.

The benchmark runs on a few cores of a shared host.  There the same
pure-Python code runs at a quiet speed and at slower ones, up to about 2.3x
slower, switching within a fraction of a second, and the share of slow time
changes from one minute to the next.  The raw latency medians of ten
40-second runs of the same code then spread by a quarter or more.

So the client times a fixed reference loop between operations, for a set
share of the time the operations took.  The loop is CPython float
arithmetic over a small tuple, like the program's own inner loops, and the
same spells slow it.  Each timed call is multiplied by
``QUIET_REFERENCE_S / mean time of the reference samples taken near it``:
it then reads as the time on a machine that runs the loop in
``QUIET_REFERENCE_S``.  "Near" is a window around the call's midpoint, so a
change of speed within a run is followed too.
"""

from __future__ import annotations

import bisect
import statistics
import time

# the loop's time on a quiet core of the 2-core box the benchmark was tuned on
QUIET_REFERENCE_S = 0.0025
# reference time owed per second of timed work
REFERENCE_SHARE = 0.1
# reference samples within this many seconds of a call's midpoint (or twice
# the call's length, if longer) correct it
WINDOW_S = 2.0

_POINTS = tuple(((k * 0.37) % 5.0, 0.5 + k % 7) for k in range(48))


def reference_loop() -> float:
    """A fixed amount of interpreter work, about 2.5 ms on a quiet core."""
    acc = 0.0
    for rep in range(180):
        lam = rep * 0.1
        acc += sum(min(max((lam - a) / b, 0.0), 4.0) for a, b in _POINTS)
    return acc


class Speed:
    """Reference-loop samples taken between the timed calls of one run."""

    def __init__(self):
        self.starts = []  # perf_counter() at the start of each sample
        self.samples = []  # seconds each sample took
        self._owed = 0.0

    def after(self, seconds: float) -> None:
        """Run the reference loop for REFERENCE_SHARE of ``seconds`` of timed work."""
        self._owed += REFERENCE_SHARE * seconds
        while self._owed > 0.0:
            start = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - start
            self.starts.append(start)
            self.samples.append(took)
            self._owed -= took

    def corrected(self, start: float, seconds: float) -> float:
        """A call that began at ``start`` and took ``seconds``, at quiet speed."""
        mid = start + 0.5 * seconds
        half = max(WINDOW_S, 2.0 * seconds)
        lo = bisect.bisect_left(self.starts, mid - half)
        hi = bisect.bisect_right(self.starts, mid + half)
        near = self.samples[lo:hi] or self.samples
        return seconds * QUIET_REFERENCE_S / statistics.mean(near)
