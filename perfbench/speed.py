"""Host-speed calibration, so timings are steady on a shared host.

A shared host changes how fast it runs pure Python by up to 2x, within
seconds and over minutes, as neighbours come and go (NOTES.md, "Host
noise and bounds"), in two ways: a core runs slower (CPU time grows
with wall time), and the hypervisor takes the virtual cores away for a
share of the time ("steal" in ``/proc/stat``).  A :class:`Speedometer` runs a
fixed pure-Python kernel, which is not part of the measured program,
for a few milliseconds every :data:`PERIOD` seconds in the repetition's
main thread, driven by ``SIGALRM``.  Each sample is the kernel's CPU
time, taken while other threads are held off, so waiting for a core or
for the interpreter lock does not count, together with the host's steal
and total CPU ticks.  :meth:`Speedometer.reference_seconds` turns an
interval of wall time into reference seconds.  It cuts the interval at
the samples and scales each piece by :data:`REFERENCE` over the
kernel's effective time around it: the median CPU time of the nearest
:data:`MIN_SAMPLES` samples, divided by the share of CPU time not
stolen.  Scaling piece by piece, rather than by one median, follows a
host that flips between fast and slow phases within the interval.

The samples cost about one kernel time per :data:`PERIOD` (~7-9%) of
every repetition, the same share on any host and for any version of the
program, so a change that makes the program faster reads faster by the
same factor.  The program itself does not use ``SIGALRM``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import sys
import time

#: Seconds between two kernel samples.
PERIOD = 0.15
#: Loop iterations of one kernel sample (about 10 ms on the reference host).
ITERATIONS = 30_000
#: Median seconds of one kernel sample on the reference host (a 2-core
#: Intel Xeon VM under Python 3.11), so reference seconds read close to
#: wall seconds there.
REFERENCE = 0.0102
#: The kernel time around a piece of an interval is taken over at least
#: this many samples, the window widened around the piece until it holds
#: them.
MIN_SAMPLES = 7


def kernel() -> int:
    """Dictionary reads and writes plus integer arithmetic: the mix of an
    instruction-set interpreter's inner loop, on a fixed small table."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(ITERATIONS):
        key = i & 1023
        acc = (acc + table.get(key, i) * 3) & 0xFFFFFFFF
        table[key] = acc ^ i
    return acc


class Speedometer:
    """Samples the kernel's speed in the background of the main thread."""

    def __init__(self) -> None:
        self._sampling = False
        self.moments: list[float] = []
        self.seconds: list[float] = []
        #: (steal, total) CPU ticks of the host at each sample.
        self.ticks: list[tuple[int, int]] = []
        self._previous = None

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        # A sample that outlasts PERIOD (a very slow host) is not
        # interrupted by the next one, so the samples stay in time order.
        if not self._sampling:
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def sample(self) -> None:
        # Hold other threads off for the sample (it is far shorter than
        # the interval), so the kernel runs in one stretch.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            began = time.thread_time()
            kernel()
            spent = time.thread_time() - began
        finally:
            sys.setswitchinterval(interval)
        # Samples arrive in time order, so the lists stay sorted.
        self.moments.append(time.perf_counter())
        self.seconds.append(spent)
        self.ticks.append(cpu_ticks())

    def kernel_seconds(self, start: float, end: float) -> float:
        """Effective kernel time over [start, end], widened to MIN_SAMPLES:
        the median CPU time over the share of host CPU time not stolen."""
        count = len(self.moments)
        if count == 0:
            return REFERENCE
        low = bisect.bisect_left(self.moments, start)
        high = bisect.bisect_right(self.moments, end)
        while high - low < min(MIN_SAMPLES, count):
            if low > 0:
                low -= 1
            if high < count and high - low < MIN_SAMPLES:
                high += 1
        steal = self.ticks[high - 1][0] - self.ticks[low][0]
        total = self.ticks[high - 1][1] - self.ticks[low][1]
        kept = 1.0 - steal / total if total > 0 else 1.0
        return statistics.median(self.seconds[low:high]) / kept

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall-clock interval [start, end] in reference seconds."""
        low = bisect.bisect_right(self.moments, start)
        high = bisect.bisect_left(self.moments, end)
        cuts = [start, *self.moments[low:high], end]
        return sum(
            (right - left) * REFERENCE / self.kernel_seconds(left, right)
            for left, right in zip(cuts, cuts[1:])
        )

    def factor(self) -> float:
        """The host's speed over the whole repetition (1 = reference)."""
        if not self.moments:
            return 1.0
        return REFERENCE / self.kernel_seconds(self.moments[0], self.moments[-1])


def cpu_ticks() -> tuple[int, int]:
    """The host's (steal, total) CPU ticks so far; (0, 0) where
    ``/proc/stat`` cannot be read, which counts as no steal."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    # user nice system idle iowait irq softirq steal
    return fields[7], sum(fields)
