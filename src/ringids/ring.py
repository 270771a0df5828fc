"""Bounded FIFO rings of descriptor references.

The only runtime channel between acquisition and analysis. Operations never
block: a full ring rejects the element (producer counts a drop or retries) and
an empty ring returns nothing (consumers poll). Capacity is a power of two and
cursors are masked, the standard ring construction.

CPython has no CAS primitive, so the cursor update is guarded by a lock held
for a constant-size critical section; the observable contract (nonblocking,
per-producer FIFO, no loss or duplication under any interleaving) is the same
as a compare-and-swap ring.
"""

from __future__ import annotations

import threading


class ConfigError(ValueError):
    """Invalid ring configuration."""


class Ring:
    def __init__(self, capacity: int):
        if capacity <= 0 or capacity & (capacity - 1):
            raise ConfigError(f"ring capacity must be a power of two, got {capacity}")
        self.capacity = capacity
        self._mask = capacity - 1
        self._slots: list = [None] * capacity
        # cursors: next slot to dequeue and to enqueue. Only the lock holder
        # moves them; a single-threaded caller may compare them without it.
        self.head = 0
        self.tail = 0
        self._lock = threading.Lock()

    def enqueue(self, item) -> bool:
        """Insert one element; False means the ring is full (backpressure)."""
        if item is None:
            raise ValueError("ring elements must not be None")
        with self._lock:
            if self.tail - self.head == self.capacity:
                return False
            self._slots[self.tail & self._mask] = item
            self.tail += 1
            return True

    def dequeue(self):
        """Remove and return the oldest element, or None if empty."""
        with self._lock:
            if self.head == self.tail:
                return None
            item = self._slots[self.head & self._mask]
            self._slots[self.head & self._mask] = None
            self.head += 1
            return item

    def dequeue_burst(self, max_n: int) -> list:
        """Remove up to ``max_n`` elements in FIFO order."""
        out = []
        with self._lock:
            while self.head != self.tail and len(out) < max_n:
                idx = self.head & self._mask
                out.append(self._slots[idx])
                self._slots[idx] = None
                self.head += 1
        return out

    def peek(self):
        with self._lock:
            if self.head == self.tail:
                return None
            return self._slots[self.head & self._mask]

    def __len__(self) -> int:
        with self._lock:
            return self.tail - self.head

