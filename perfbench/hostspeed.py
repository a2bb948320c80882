"""Host speed, sampled while the benchmark runs, so that times can be given
in reference-speed seconds.

The shared 2-vCPU machine this benchmark was written on changes speed by up
to 2x in phases that last from seconds to minutes, and one vCPU's phases do
not follow the other's.  A run's median pass therefore depends on when the
run happened.  To take that out, an interval timer interrupts this process
every ``PERIOD_S`` seconds of wall time, and the signal handler times a fixed
pure-Python kernel that never touches ``groupalg``: once to bring it back
into the cache, then twice, keeping the faster.

Python code takes the signal within microseconds, so the gap between two
samples is normally one period.  Up to one period of a gap is interpreter
work and is scaled by ``REFERENCE_KERNEL_S / kernel time`` of the sample that
ends it.  A gap longer than that holds one long call into compiled code
(LAPACK, a large numpy or json call), which takes the signal only when it
returns; the excess is counted as measured, because the longest such call
was seen not to follow the kernel's phases (pair(36)'s 2 s operator norm
varied by 6% while the kernel's time doubled; mixed-small's large gathers
do follow them, see the README).  An interval's *reference seconds* are the
sum, without the samplers' own time.  The kernel and the constants are fixed,
so two commits of the program are compared at the same reference speed.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.02
# The kernel's median sampled time on a 2.0 GHz Xeon vCPU, Python 3.11.7,
# during the three workloads.
REFERENCE_KERNEL_S = 1.3e-4


def kernel() -> int:
    """Fixed interpreter work: dict and list updates in a loop."""
    counts: dict[int, int] = {}
    seen = []
    for i in range(700):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        if i % 7 == 0:
            seen.append(key)
    return len(counts) + len(seen)


class Sampler:
    """Samples the kernel's time on a SIGALRM interval timer.

    Use as a context manager around the code to measure.  Only the main
    thread takes the signal, between two bytecodes.
    """

    def __init__(self):
        self.start: list[float] = []
        self.end: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()  # brings the kernel's code and data back into the cache
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        kernel()
        t3 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t3)
        self.kernel_s.append(min(t2 - t1, t3 - t2))

    def __enter__(self) -> "Sampler":
        self._sample(None, None)  # so that every interval has one before it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _gap_seconds(self, gap: float, sample: int) -> float:
        scaled = min(gap, PERIOD_S)
        return scaled * REFERENCE_KERNEL_S / self.kernel_s[sample] + (gap - scaled)

    def reference_seconds(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b] of ``time.perf_counter``,
        without the samplers' own time.  ``a`` and ``b`` must be read outside
        the signal handler, so no sample straddles them."""
        first = bisect.bisect_left(self.start, a)
        last = bisect.bisect_right(self.end, b)
        if first == last:  # no sample inside: use the one before
            return self._gap_seconds(b - a, first - 1)
        total, cursor = 0.0, a
        for i in range(first, last):
            total += self._gap_seconds(self.start[i] - cursor, i)
            cursor = self.end[i]
        return total + self._gap_seconds(b - cursor, last - 1)
