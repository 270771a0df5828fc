"""Ring FIFO semantics, burst ops, and multi-thread stress."""

import threading

import pytest

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


def _stress(n_producers: int, n_consumers: int, per_producer: int):
    ring = Ring(1024)
    done = threading.Event()
    consumed: list[list[tuple[int, int]]] = [[] for _ in range(n_consumers)]

    def producer(pid: int):
        seq = 0
        while seq < per_producer:
            if ring.enqueue((pid, seq)):
                seq += 1

    def consumer(cid: int):
        out = consumed[cid]
        while not done.is_set() or len(ring):
            got = ring.dequeue_burst(64)
            if got:
                out.extend(got)

    producers = [threading.Thread(target=producer, args=(p,)) for p in range(n_producers)]
    consumers = [threading.Thread(target=consumer, args=(c,)) for c in range(n_consumers)]
    for t in consumers + producers:
        t.start()
    for t in producers:
        t.join()
    done.set()
    for t in consumers:
        t.join()
    return consumed


def check_stress_result(consumed, n_producers, per_producer):
    # no loss, no duplication
    everything = [item for lst in consumed for item in lst]
    assert len(everything) == n_producers * per_producer
    assert set(everything) == {(p, s) for p in range(n_producers) for s in range(per_producer)}
    # per-producer order preserved within each consumer's observation
    for lst in consumed:
        last_seen = {}
        for pid, seq in lst:
            assert last_seen.get(pid, -1) < seq
            last_seen[pid] = seq


def test_mpsc_stress_small():
    consumed = _stress(n_producers=4, n_consumers=1, per_producer=20_000)
    check_stress_result(consumed, 4, 20_000)


def test_mpmc_stress_small():
    consumed = _stress(n_producers=4, n_consumers=4, per_producer=20_000)
    check_stress_result(consumed, 4, 20_000)
