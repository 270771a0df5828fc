"""Counter clock monotonicity, calibration and conversion."""

import threading
import time

import pytest

from ringids.clock import CALIBRATION_S, AlreadyRunning, CounterClock, NotStarted, counter_to_us


def test_counter_conversion_exact():
    assert counter_to_us(3785, 3785.0) == 1
    assert counter_to_us(0, 3785.0) == 0
    assert counter_to_us(3784, 3785.0) == 0
    assert counter_to_us(37850, 3785.0) == 10


def test_clock_advances_while_running():
    clk = CounterClock().start()
    a = clk.ticks
    time.sleep(0.01)
    b = clk.ticks
    clk.stop()
    assert b > a


def test_rate_is_measured_against_wall_time():
    t0 = time.monotonic()
    clk = CounterClock().start()
    try:
        assert time.monotonic() - t0 >= CALIBRATION_S
        assert clk.ticks_per_us > 0
        a, w0 = clk.now_us(), time.monotonic()
        time.sleep(0.05)
        advanced, wall_us = clk.now_us() - a, (time.monotonic() - w0) * 1e6
    finally:
        clk.stop()
    # loose: the counter thread shares the interpreter and the host's cores
    assert wall_us / 20 < advanced < wall_us * 20


def test_double_start_rejected():
    clk = CounterClock().start()
    try:
        with pytest.raises(AlreadyRunning):
            clk.start()
    finally:
        clk.stop()


def test_not_started_read():
    clk = CounterClock()
    with pytest.raises(NotStarted):
        clk.now_us()


def test_stopped_clock_value_retained():
    clk = CounterClock().start()
    time.sleep(0.005)
    clk.stop()
    v1 = clk.now_us()
    time.sleep(0.005)
    assert clk.now_us() == v1


def test_multi_reader_monotonicity():
    clk = CounterClock().start()
    failures = []

    def reader():
        prev = -1
        for _ in range(50_000):
            now = clk.now_us()
            if now < prev:
                failures.append((prev, now))
                return
            prev = now

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    clk.stop()
    assert not failures
