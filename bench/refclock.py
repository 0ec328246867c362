"""A clock in reference seconds, steady against the host's speed drift.

This host is a shared virtual machine whose speed drifts by up to about 65%
over seconds to minutes, and a process's CPU time drifts with its wall time
(the slowdown is slower execution, not time taken away).  So a job's time is
measured against a fixed calibration slice of pure-Python work, run in the
same process every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler (the
handler runs between bytecodes, so it interleaves with any Python code under
test without touching it).  Each stretch of work between two slices is
scaled by ``SLICE_REF_S`` over the mean time of the ``2 * HALF_WINDOW``
slices around it (about two seconds of them):

    reference seconds = wall seconds * SLICE_REF_S / slice seconds

so a stretch run while the host is half as fast reads the same.  Slice time
is excluded from the work time.  The mean, not the median: slice times are
skewed, and a stretch's wall time sums over the host's slow and fast moments
alike (on six reps of the exact workload whose wall times spread 22% of their
median, the mean left 4.5% and the median 9.5%).  ``SLICE_REF_S`` is about the slice's time on
the 2-vCPU Xeon the benchmark was written on, which keeps reference seconds
close to wall seconds there.

    clock = RefClock(); clock.start()
    a = clock.mark(); work(); b = clock.mark(); clock.burst(HALF_WINDOW)
    wall_s, ref_s = clock.span(a, b)
"""

from __future__ import annotations

import signal
import statistics
import time

SLICE_REF_S = 0.004
INTERVAL_S = 0.1
HALF_WINDOW = 10


def _slice() -> int:
    """Fixed work shaped like the library's: small tuples and frozensets,
    dict and set probes, bit arithmetic."""
    seen: dict = {}
    found = set()
    acc = 0
    for i in range(4000):
        u = (i * 7919) & 63
        v = (u * 31 + 7) & 63
        edge = (u, v) if u < v else (v, u)
        seen[edge] = seen.get(edge, 0) + 1
        if (acc ^ u) & 3 == 0:
            found.add(frozenset(edge))
        acc = (acc << 1 ^ v) & 0xFFFF
    return acc + len(seen) + len(found)


class RefClock:
    """Work stretches and the calibration slices that close them.  A clock
    never started runs no slices, and its spans read wall seconds for both."""

    def __init__(self) -> None:
        self.stretches: list[float] = []  # wall seconds of work before slice i
        self.slices: list[float] = []  # seconds of slice i; empty if not started
        self._last = time.perf_counter()
        self._running = False
        self._busy = False

    def _tick(self, *_args) -> None:
        if self._busy:  # a slow slice outlived the interval
            return
        self._busy = True
        start = time.perf_counter()
        self.stretches.append(start - self._last)
        _slice()
        self._last = time.perf_counter()
        self.slices.append(self._last - start)
        self._busy = False

    def start(self) -> None:
        """Run a slice now, then one every ``INTERVAL_S`` seconds."""
        self._running = True
        self.mark()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    def mark(self) -> int:
        """Close the open stretch, with a slice if the clock is running.
        Returns the index to pass to ``span``."""
        if not self._running:
            now = time.perf_counter()
            self.stretches.append(now - self._last)
            self._last = now
            return len(self.stretches)
        self.burst(1)
        return len(self.stretches)

    def burst(self, count: int) -> None:
        """Run ``count`` slices back to back now (none on a clock not
        running), so that the stretch before them has slices on both sides."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        for _ in range(count):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def span(self, first: int, last: int) -> tuple[float, float]:
        """(wall, reference) seconds of the work between two marks."""
        wall = sum(self.stretches[first:last])
        if not self.slices:
            return wall, wall
        ref = 0.0
        for i in range(first, last):
            window = self.slices[max(0, i - HALF_WINDOW):i + HALF_WINDOW]
            ref += self.stretches[i] * SLICE_REF_S / statistics.fmean(window)
        return wall, ref
