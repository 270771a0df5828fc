"""Monotonic counter time source for real-clock runs.

The engine never reads wall time: a real-clock run's timestamps come from a
counter incremented by a dedicated thread and divided by a
ticks-per-microsecond rate. A simulated-clock run has no clock object; its
scheduler computes each packet's time and hands it to the worker. The
counter's rate is measured once, against ``time.monotonic`` when the clock
starts; drift after that (the counter thread shares the interpreter with the
workers, so it slows under load) is not corrected, only visible as the
effective rate a real-clock report records. Overflow handling is out of
scope. Epoch is engine start (time zero).
"""

from __future__ import annotations

import threading
import time

CALIBRATION_S = 0.01  # wall time over which start() measures the tick rate


class ClockError(Exception):
    pass


class AlreadyRunning(ClockError):
    pass


class NotStarted(ClockError):
    pass


def counter_to_us(ticks: int, ticks_per_us: float) -> int:
    """Convert raw counter ticks to whole microseconds."""
    return int(ticks / ticks_per_us)


class CounterClock:
    """Counter incremented by a background thread, read by any number of threads.

    Single-writer increments mean every reader observes a non-decreasing value;
    the OS may deschedule the writer and slow the apparent passage of time, but
    can never reverse it.
    """

    def __init__(self):
        self.ticks_per_us = 0.0  # measured by start()
        self._ticks = 0
        self._thread: threading.Thread | None = None
        self._stop = False

    def start(self) -> "CounterClock":
        """Start the counter thread and measure its rate over CALIBRATION_S."""
        if self._thread is not None and self._thread.is_alive():
            raise AlreadyRunning("counter thread already running")
        self._stop = False
        self._thread = threading.Thread(target=self._run, name="clock-counter", daemon=True)
        t0, n0 = time.monotonic(), self._ticks
        self._thread.start()
        time.sleep(CALIBRATION_S)
        self.ticks_per_us = max(self._ticks - n0, 1) / ((time.monotonic() - t0) * 1e6)
        return self

    def _run(self) -> None:
        while not self._stop:
            self._ticks += 1

    def stop(self) -> None:
        self._stop = True
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def ticks(self) -> int:
        return self._ticks

    def now_us(self) -> int:
        if not self.ticks_per_us:
            raise NotStarted("clock not started")
        return counter_to_us(self._ticks, self.ticks_per_us)

