"""Host-speed calibration, interleaved with a repetition.

On a shared host the CPU speed a process gets drifts by 20 % and more
within seconds (a fixed loop ran in anything from 0.15 to 0.24 s from one
slice to the next), and CPU time drifts with wall time, so neither clock
alone compares two commits.  Every ``INTERVAL_S`` of wall time a timer
signal interrupts the repetition, at the next bytecode boundary of the main
thread, and times one pass of a fixed pure-Python loop that mixes the
interpreter work heckekit does (tuple keys, dict updates, int arithmetic).
Each sample says how fast this CPU ran at that moment.

For an interval [a, b] of the repetition:

* ``work_s`` is its wall time minus the calibration passes inside it;
* ``normalized_s`` is ``work_s`` times the mean of ``REFERENCE_S / sample``
  over the samples inside it, i.e. the time the same work would take on a
  CPU that runs the loop in ``REFERENCE_S``.  A sample stretched by a
  stall adds almost nothing to the mean, as the stall did no work.

``REFERENCE_S`` is a fixed constant (about the loop's median pass on the
2-vCPU shared host the benchmark was written on), so normalized times of
two commits compare directly; a faster program gives a smaller value at any
host speed.  The passes cost about 3 % of a repetition.
"""

from __future__ import annotations

import signal
import statistics
import time

perf = time.perf_counter

INTERVAL_S = 0.01
LOOP_ITERATIONS = 800
REFERENCE_S = 3.0e-4


def calibration_loop() -> int:
    coefficients: dict = {}
    for i in range(LOOP_ITERATIONS):
        key = (i & 7, (i >> 3) & 7)
        coefficients[key] = coefficients.get(key, 0) + i * (i + 3)
    return len(coefficients)


class Clock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration) of each pass

    def sample(self, *signal_args) -> None:
        """One timed pass; the timer signal's handler, also called at the start of a repetition."""
        start = perf()
        calibration_loop()
        self.samples.append((start, perf() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _inside(self, a: float, b: float) -> list[float]:
        return [d for t, d in self.samples if a <= t < b]

    def work_s(self, a: float, b: float) -> float:
        return (b - a) - sum(self._inside(a, b))

    def normalized_s(self, a: float, b: float) -> float:
        inside = self._inside(a, b)
        if not inside:
            raise RuntimeError(f"no calibration sample in an interval of {b - a:.4f} s")
        return self.work_s(a, b) * statistics.fmean(REFERENCE_S / d for d in inside)

    def speed(self, a: float, b: float) -> float:
        """Median REFERENCE_S / sample inside [a, b]: 1 at the reference speed."""
        return statistics.median(REFERENCE_S / d for d in self._inside(a, b))
