"""Bounded FIFO rings of descriptor references.

The channel from acquisition to each analysis worker; allowed frames return
on a ``collections.deque``, as released pool slots do. Operations never
block: a full ring rejects the element (producer counts a drop) and
an empty ring returns nothing (consumers poll). Capacity is a power of two and
cursors are masked, the standard ring construction.

Every ring, with no exception, has one producer (acquisition) and one
consumer (its worker), as a DPDK ``rte_ring`` created with ``RING_F_SP_ENQ |
RING_F_SC_DEQ`` or Lamport's single-producer/single-consumer queue, so no
operation takes a lock. The producer alone moves ``tail``: it writes the
slot, then publishes it by storing ``tail + 1``. The consumer alone moves
``head``: it takes the slot and clears it, then frees it by storing
``head + 1``. This relies on the interpreter lock, which runs each thread's
bytecode in program order and makes every single load and store atomic; the
real-clock runner refuses to start without it.

``ConfigError`` is the package's one error for an invalid setting: a ring's
capacity here, and the engine, workload and cost-model settings elsewhere.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: ring, engine, workload or cost model."""


class Ring:
    def __init__(self, capacity: int):
        if capacity <= 0 or capacity & (capacity - 1):
            raise ConfigError(f"ring capacity must be a power of two, got {capacity}")
        self.capacity = capacity
        self._mask = capacity - 1
        self._slots: list = [None] * capacity
        # cursors: next slot to dequeue and to enqueue. ``head`` is written by
        # the consumer only and ``tail`` by the producer only; either side may
        # read both.
        self.head = 0
        self.tail = 0

    def enqueue(self, item) -> bool:
        """Insert one element; False means the ring is full (backpressure).
        Producer side only."""
        if item is None:
            raise ValueError("ring elements must not be None")
        tail = self.tail
        if tail - self.head == self.capacity:
            return False
        self._slots[tail & self._mask] = item
        self.tail = tail + 1
        return True

    def dequeue(self):
        """Remove and return the oldest element, or None if empty. Consumer
        side only."""
        head = self.head
        if head == self.tail:
            return None
        idx = head & self._mask
        item = self._slots[idx]
        self._slots[idx] = None
        self.head = head + 1
        return item

    def dequeue_burst(self, max_n: int) -> list:
        """Remove up to ``max_n`` elements in FIFO order. Consumer side only."""
        head = self.head
        n = min(self.tail - head, max_n)
        if n <= 0:
            return []
        slots = self._slots
        i = head & self._mask
        j = i + n
        if j <= self.capacity:
            out = slots[i:j]
            slots[i:j] = [None] * n
        else:  # wraps past the end of the slot list
            j -= self.capacity
            out = slots[i:] + slots[:j]
            slots[i:] = [None] * (self.capacity - i)
            slots[:j] = [None] * j
        self.head = head + n
        return out

    def peek(self):
        """The oldest element without removing it, or None. Consumer side only."""
        head = self.head
        if head == self.tail:
            return None
        return self._slots[head & self._mask]

    def __len__(self) -> int:
        head = self.head  # read first: tail only grows, so the count is never negative
        return self.tail - head
