"""Bounded FIFO rings of descriptor references.

The channel from acquisition to each analysis worker is a
``collections.deque`` with a bound, as the inline TX and the pool's released
slots are deques without one. Operations never block: a full ring rejects
the element (the producer counts a drop) and an empty ring returns nothing
(consumers poll). Capacity is a power of two, as a DPDK ``rte_ring``'s is.

Every ring has one producer (acquisition), which alone appends, and one
consumer (its worker), which alone pops, so no operation takes a lock. The
deque's ``append`` and ``popleft`` are thread-safe. A length the producer
reads can only shrink before its append, so the bound holds; the elements
the consumer counts stay until it pops them.

``ConfigError`` is the package's one error for an invalid setting: a ring's
capacity here, and the engine, workload and cost-model settings elsewhere.
"""

from __future__ import annotations

from collections import deque


class ConfigError(ValueError):
    """Invalid configuration: ring, engine, workload or cost model."""


class Ring(deque):
    """A deque that refuses an element once ``capacity`` wait.

    A subclass, not a wrapper, so ``len(ring)`` and ``if ring:`` run in C on
    the driver's per-frame path.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity: int):
        if capacity <= 0 or capacity & (capacity - 1):
            raise ConfigError(f"ring capacity must be a power of two, got {capacity}")
        super().__init__()
        self.capacity = capacity

    def enqueue(self, item) -> bool:
        """Insert one element; False means the ring is full (backpressure).
        Producer side only."""
        if item is None:
            raise ValueError("ring elements must not be None")
        if len(self) >= self.capacity:
            return False
        self.append(item)
        return True

    def dequeue(self):
        """Remove and return the oldest element, or None if empty. Consumer
        side only."""
        return self.popleft() if self else None

    def dequeue_burst(self, max_n: int) -> list:
        """Remove up to ``max_n`` elements in FIFO order. Consumer side only."""
        popleft = self.popleft
        return [popleft() for _ in range(min(len(self), max_n))]

    def peek(self):
        """The oldest element without removing it, or None. Consumer side only."""
        return self[0] if self else None
