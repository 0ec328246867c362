"""Tests of the reference clock.

    python3 -m pytest bench/test_refclock.py
"""

import signal
import time

import pytest

from refclock import HALF_WINDOW, SLICE_REF_S, RefClock


def test_span_scales_by_mean_slice_in_window():
    clock = RefClock()
    clock.stretches = [1.0, 2.0, 3.0]
    clock.slices = [SLICE_REF_S * 2] * 3
    assert clock.span(0, 3) == pytest.approx((6.0, 3.0))
    clock.slices = [SLICE_REF_S, SLICE_REF_S * 3, SLICE_REF_S * 2]
    # Every window covers all three slices (mean 2x the reference).
    assert HALF_WINDOW >= 2
    assert clock.span(1, 3) == pytest.approx((5.0, 2.5))


def test_clock_never_started_reads_wall_seconds():
    clock = RefClock()
    first = clock.mark()
    time.sleep(0.05)
    clock.burst(3)
    wall, ref = clock.span(first, clock.mark())
    assert wall == ref
    assert wall >= 0.05
    assert clock.slices == []


def test_running_clock_slices_and_leaves_work_time_out():
    clock = RefClock()
    clock.start()
    first = clock.mark()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.5:
        sum(range(1000))
    end = clock.mark()
    clock.burst(HALF_WINDOW)
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    wall, ref = clock.span(first, end)
    assert len(clock.slices) >= 5
    assert 0.0 < wall < time.perf_counter() - start
    assert ref > 0.0
