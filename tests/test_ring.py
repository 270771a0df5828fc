"""Ring FIFO semantics, burst ops, and single-producer/single-consumer
stress of the rings and the pool."""

import sys
import threading
import weakref

import pytest

from ringids.packet import PacketPool, PoolExhausted
from ringids.ring import ConfigError, Ring


def test_new_ring_empty():
    r = Ring(1024)
    assert len(r) == 0
    assert r.capacity == 1024
    assert r.dequeue() is None


@pytest.mark.parametrize("capacity", [0, 1000, 3, -4])
def test_bad_capacity_rejected(capacity):
    with pytest.raises(ConfigError):
        Ring(capacity)


def test_full_and_fifo():
    r = Ring(2)
    assert r.enqueue("a") and r.enqueue("b")
    assert not r.enqueue("c")
    assert r.dequeue() == "a"
    assert r.dequeue() == "b"
    assert r.dequeue() is None


def test_fifo_order_through_wraparound():
    r = Ring(8)
    for round_ in range(10):
        items = [f"{round_}-{i}" for i in range(5)]
        for it in items:
            assert r.enqueue(it)
        assert [r.dequeue() for _ in range(5)] == items


def test_burst_ops():
    r = Ring(8)
    for item in ("a", "b", "c"):
        assert r.enqueue(item)
    assert r.dequeue_burst(8) == ["a", "b", "c"]
    assert r.dequeue_burst(8) == []
    # burst dequeue stops at max_n, then drains the rest in order
    assert sum(r.enqueue(i) for i in range(20)) == 8
    assert r.dequeue_burst(5) == [0, 1, 2, 3, 4]
    assert r.dequeue_burst(8) == [5, 6, 7]


def test_none_rejected():
    r = Ring(4)
    with pytest.raises(ValueError):
        r.enqueue(None)


def test_conservation_single_thread():
    r = Ring(16)
    enq_ok = deq = 0
    for i in range(100):
        if r.enqueue(i):
            enq_ok += 1
        if i % 3 == 0:
            if r.dequeue() is not None:
                deq += 1
    assert enq_ok == deq + len(r)


@pytest.fixture
def rapid_switching():
    """Switch threads every microsecond, so that a thread is interrupted at
    nearly every point where the interpreter may switch."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(switch)


def run_threads(*targets) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)  # about a second when correct; a thread that died leaves its peer spinning
        assert not t.is_alive(), "stress thread still running after 20 s"


@pytest.mark.parametrize("capacity", [1, 2, 4, 8, 16, 32, 64])
def test_spsc_stress(capacity, rapid_switching):
    """One producer and one consumer thread: every element arrives once, in
    order, whether taken one at a time or in bursts of any size."""
    n = 4_000
    ring = Ring(capacity)
    got: list[int] = []

    def producer():
        i = 0
        while i < n:
            if ring.enqueue(i):
                i += 1

    def consumer():
        k = 0
        while len(got) < n:
            k += 1
            if k % 3 == 0:
                item = ring.dequeue()
                if item is not None:
                    got.append(item)
            else:
                got.extend(ring.dequeue_burst(k % 7 + capacity // 2))

    run_threads(producer, consumer)
    assert got == list(range(n))
    assert len(ring) == 0 and ring.dequeue() is None


def test_pool_stress_over_rings(rapid_switching):
    """One thread stores frames and feeds two workers over rings, releasing a
    slot itself when the ring is full; the workers release the rest. Every
    slot comes home exactly once, and no slot is handed out while held."""
    n, n_workers = 6_000, 2
    pool = PacketPool(capacity=8)
    rings = [Ring(4) for _ in range(n_workers)]
    done = threading.Event()
    seen = [0] * n_workers
    dropped = [0]
    errors: list[str] = []

    def acquire():
        for i in range(n):
            frame = i.to_bytes(4, "big") * 16
            while True:
                try:
                    slot = pool.store(frame)
                    break
                except PoolExhausted:
                    pass
            if not rings[i % n_workers].enqueue((i, slot)):
                pool.release(slot)
                dropped[0] += 1
        done.set()

    def work(w: int):
        ring = rings[w]
        while True:
            finished = done.is_set()  # read before the dequeue: nothing comes after it
            item = ring.dequeue()
            if item is None:
                if finished:
                    return
                continue
            i, slot = item
            if pool.frame(slot, 64) != i.to_bytes(4, "big") * 16:
                errors.append(f"slot {slot} of frame {i} was overwritten")
            pool.release(slot)
            seen[w] += 1

    run_threads(acquire, *[lambda w=w: work(w) for w in range(n_workers)])
    assert errors == []
    assert sum(seen) > 0 and sum(seen) + dropped[0] == n
    assert pool.in_use_count() == 0
    assert sorted(pool._released) == list(range(pool._next_unused))  # each slot came back once


def test_burst_through_wraparound():
    r = Ring(8)
    for i in range(6):
        assert r.enqueue(i)
    assert r.dequeue_burst(5) == [0, 1, 2, 3, 4]
    for i in range(6, 13):
        assert r.enqueue(i)
    assert not r.enqueue(13)
    assert r.dequeue_burst(100) == list(range(5, 13))
    assert r.dequeue_burst(4) == [] and len(r) == 0
    token = _Token()
    ref = weakref.ref(token)
    assert r.enqueue(token) and r.dequeue_burst(4) == [token]
    del token
    assert ref() is None  # the ring keeps no reference to a dequeued element


class _Token:
    """A weakly referenceable ring element."""
