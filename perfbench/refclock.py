"""A clock that counts work instead of seconds, for a machine whose speed
changes under the benchmark.

On a shared 2-core host the same pass can take up to 1.9 times as long
when a neighbour loads the host, in stretches of seconds to tens of
seconds, so raw wall times of one run spread by 15-35 %.  ``RefClock``
samples the interpreter's speed while the workload runs: every 20 ms of
process CPU time a profiling-timer signal runs a fixed calibration loop
and times it.  Between two samples the workload is taken to progress at
the rate of the median of the last three calibrations, and the work done
is converted back to seconds with ``CAL_REF_S``, the loop's duration on an
unloaded core.  Reference seconds are therefore "the wall time this would
have taken at full speed"; the calibration costs about 0.5 % of a pass.
The loop is Fraction arithmetic because that is what the workloads spend
their time on: a loop of plain integer operations slowed down less than
the workloads under load and left twice the spread.

The clock also carries the rings deadline, in reference seconds, so that a
check is cut after the same amount of work whatever the load.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right
from fractions import Fraction

CAL_REF_S = 72e-6          # one sampled calibration loop on an unloaded core
TICK_S = 0.02              # process CPU time between samples


class Overrun(BaseException):
    """Raised from the clock's signal handler when an armed deadline passes;
    a BaseException so that no handler in the package can swallow it."""


def calibration_loop() -> Fraction:
    """Fixed work of the kind that dominates the workloads: Fraction sums."""
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(1, i)
    return total


class RefClock:
    def __init__(self):
        self.times: list[float] = []      # perf_counter at each sample
        self.work: list[float] = []       # calibration units done before it
        self.rates: list[float] = []      # units per second after it
        self.recent: list[float] = []
        self.deadline_work: float | None = None

    def _sample(self) -> None:
        start = time.perf_counter()
        calibration_loop()
        took = time.perf_counter() - start
        if self.times:
            self.work.append(self.work[-1] + (start - self.times[-1]) * self.rates[-1])
        else:
            self.work.append(0.0)
        self.recent = self.recent[-2:] + [took]
        self.times.append(start)
        self.rates.append(1.0 / statistics.median(self.recent))

    def _tick(self, signum, frame) -> None:
        self._sample()
        if self.deadline_work is not None and self.work[-1] > self.deadline_work:
            self.deadline_work = None
            raise Overrun

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.deadline_work = None

    def _work_at(self, t: float) -> float:
        i = max(bisect_right(self.times, t) - 1, 0)
        return self.work[i] + (t - self.times[i]) * self.rates[i]

    def ref_time(self, t: float) -> float:
        """A ``time.perf_counter()`` reading on the reference timeline."""
        return self._work_at(t) * CAL_REF_S

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds between two ``time.perf_counter()`` readings."""
        return self.ref_time(end) - self.ref_time(start)

    def arm(self, seconds: float) -> None:
        """Raise Overrun once ``seconds`` reference seconds have passed."""
        self.deadline_work = self._work_at(time.perf_counter()) + seconds / CAL_REF_S

    def disarm(self) -> None:
        self.deadline_work = None
