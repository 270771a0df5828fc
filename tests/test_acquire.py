"""Flow hashing, ring selection, frame dispatch and the TX drain."""

import random
import struct
import zlib
from collections import Counter, deque

import pytest

from conftest import CollectSink, CountingPool, build_ipv4_udp_frame, reverse
from ringids import acquire
from ringids.acquire import AcquisitionWorker, rss_hash, select_ring
from ringids.harness.synth import build_ipv4_tcp_frame
from ringids.packet import FiveTuple, Proto, canonical_key, parse_ip
from ringids.ring import Ring


def test_select_ring_of_rss_hash_equals_reference():
    rng = random.Random(37)
    for proto in Proto:
        tuples = [random_tuple(rng, proto) for _ in range(10_000)]
        for t in tuples:
            key = canonical_key(t)[0]
            want = zlib.crc32(
                struct.pack(">BIHIH", int(key.proto), key.src_ip, key.src_port, key.dst_ip, key.dst_port)
            )
            for n in range(1, 9):
                assert select_ring(rss_hash(t), n) == select_ring(want, n)


def test_rss_hash_symmetric_and_deterministic():
    t = FiveTuple(Proto.TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
    assert rss_hash(t) == rss_hash(reverse(t))
    assert rss_hash(t) == rss_hash(t)


def test_rss_hash_hashes_the_canonical_tuple_bytes(monkeypatch):
    """The hash input is the flow key's 13 bytes: protocol, then the lower
    endpoint's address and port, then the higher one's, big-endian."""
    seen = []
    monkeypatch.setattr(acquire, "crc32", lambda data: seen.append(bytes(data)) or 0)
    t = FiveTuple(Proto.TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
    rss_hash(t)
    rss_hash(reverse(t))
    assert seen == [bytes.fromhex("06" "0a000001" "04d2" "0a000002" "0050")] * 2


def test_rss_hash_golden_vector():
    # the CRC-32 of the 13 key bytes; guards accidental change
    t = FiveTuple(Proto.TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
    assert rss_hash(t) == 0x23BFDF17


def test_rss_hash_symmetry_random():
    rng = random.Random(8)
    for _ in range(2000):
        t = FiveTuple(Proto.UDP, rng.getrandbits(32), rng.randrange(65536),
                      rng.getrandbits(32), rng.randrange(65536))
        assert rss_hash(t) == rss_hash(reverse(t))


def test_select_ring_is_hash_mod_n():
    assert select_ring(64, 3) == 1  # every bit of the hash counts, not only the low six
    assert select_ring(0xFFFFFFFF, 48) == 0xFFFFFFFF % 48 == 15
    for n in (2, 3, 5, 48, 64):
        for h in (0, 1, 63, 64, 0xDEADBEEF):
            assert select_ring(h, n) == h % n
    for h in (0, 1, 7, 0xDEADBEEF):
        assert select_ring(h, 1) == 0
    with pytest.raises(ValueError):
        select_ring(1, 0)


@pytest.fixture(scope="module")
def random_flow_hashes():
    rng = random.Random(53)
    return [rss_hash(random_tuple(rng)) for _ in range(20_000)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 48])
def test_select_ring_spreads_flows_evenly(random_flow_hashes, n):
    """The fullest ring gets at most 1.25 times its fair share of 20,000
    random flows, whether or not n divides a power of two."""
    counts = Counter(select_ring(h, n) for h in random_flow_hashes)
    assert set(counts) == set(range(n))
    assert max(counts.values()) <= 1.25 * len(random_flow_hashes) / n


def frame_for(i, payload=b"data!"):
    return build_ipv4_tcp_frame(parse_ip("10.0.0.1") + i, 1000 + i, parse_ip("10.1.0.1"), 80,
                                flags=0x10, seq=1, payload=payload)


def make_acquirer(n_frames=0, n_rings=2, ring_capacity=64, inline=False):
    """An acquisition worker; its TX deque is ``tx`` in inline mode only, as
    the engine builds it."""
    pool = CountingPool(capacity=max(n_frames + 8, 16))
    rings = [Ring(ring_capacity) for _ in range(n_rings)]
    tx = deque()
    sink = CollectSink()
    worker = AcquisitionWorker(pool, rings, tx_ring=tx if inline else None, sink=sink)
    return worker, pool, rings, tx, sink


def ingest_all(worker, frames, now_us=0):
    return [worker.ingest_frame(f, now_us) for f in frames]


def test_dispatch_follows_hash_rule():
    frames = [frame_for(i) for i in range(30)]
    worker, pool, rings, _, _ = make_acquirer(len(frames))
    placed = ingest_all(worker, frames, now_us=5)
    assert len(placed) == 30 and min(placed) >= 0
    assert worker.stats.received == 30
    # every descriptor landed on the ring its flow hash selects
    for idx, ring in enumerate(rings):
        while True:
            desc = ring.dequeue()
            if desc is None:
                break
            assert select_ring(rss_hash(desc.tuple), 2) == idx
            assert placed[frames.index(pool.frame(desc.slot, desc.frame_len))] == idx
            assert desc.arrival_us == 5
            pool.release(desc.slot)
    assert pool.in_use_count() == 0


def random_tuple(rng, proto=None):
    if proto is None:
        proto = rng.choice([Proto.TCP, Proto.UDP, Proto.ICMP, Proto.OTHER])
    ported = proto in (Proto.TCP, Proto.UDP)
    return FiveTuple(proto, rng.getrandbits(32), rng.randrange(65536) if ported else 0,
                     rng.getrandbits(32), rng.randrange(65536) if ported else 0)


def test_ring_memo_follows_hash_rule_and_stays_bounded(monkeypatch):
    monkeypatch.setattr(acquire, "RING_MEMO_ENTRIES", 64)
    rng = random.Random(23)
    for n_rings in range(1, 9):
        worker, *_ = make_acquirer(n_rings=n_rings)
        tuples = [random_tuple(rng) for _ in range(100)]
        seen = tuples + [reverse(t) for t in tuples]
        for _ in range(3):  # revisits hit the memo or, after a clear, miss again
            rng.shuffle(seen)
            for t in seen:
                assert worker.ring_for(t) == select_ring(rss_hash(t), n_rings)
                assert len(worker._ring_of) <= acquire.RING_MEMO_ENTRIES


def test_flow_hash_runs_once_per_tuple(monkeypatch):
    calls = []

    def counting_hash(t):
        calls.append(t)
        return rss_hash(t)

    monkeypatch.setattr(acquire, "rss_hash", counting_hash)
    frames = [frame_for(i % 7) for i in range(42)]
    worker, _, rings, _, _ = make_acquirer(len(frames))
    ingest_all(worker, frames)
    assert sum(len(r) for r in rings) == 42
    assert len(calls) == len(set(calls)) == 7


def test_full_ring_counts_drop_and_releases_slot():
    frames = [frame_for(0) for _ in range(4)]  # same flow -> same ring
    worker, pool, rings, _, _ = make_acquirer(len(frames), n_rings=1, ring_capacity=2)
    assert ingest_all(worker, frames) == [0, 0, -1, -1]
    assert worker.stats.received == 4
    assert worker.stats.dropped == 2
    assert len(rings[0]) == 2
    assert pool.in_use_count() == 2  # only the enqueued descriptors hold slots


def test_decode_failures_counted_separately():
    bad = b"\x00" * 10  # shorter than an Ethernet header
    ipv6 = bytearray(frame_for(0))
    ipv6[12:14] = b"\x86\xdd"
    worker, pool, rings, _, _ = make_acquirer(3, n_rings=1)
    assert ingest_all(worker, [bad, bytes(ipv6), frame_for(1)]) == [-1, -1, 0]
    assert worker.stats.received == 3
    assert worker.stats.decode_failed == 2
    assert worker.stats.dropped == 0
    assert len(rings[0]) == 1
    assert pool.in_use_count() == 1


def test_unsupported_frame_on_full_pool_is_a_decode_failure():
    ipv6 = bytearray(frame_for(0))
    ipv6[12:14] = b"\x86\xdd"
    worker, pool, rings, _, _ = make_acquirer(n_rings=1)
    while pool.in_use_count() < pool.capacity:
        pool.store(frame_for(1))
    writes = pool.writes
    assert ingest_all(worker, [bytes(ipv6)]) == [-1]
    assert (worker.stats.decode_failed, worker.stats.dropped) == (1, 0)
    assert pool.writes == writes  # rejected before the pool is touched
    assert len(rings[0]) == 0


def test_received_conservation_invariant():
    rng = random.Random(3)
    frames = []
    for i in range(200):
        if rng.random() < 0.05:
            frames.append(b"\x01\x02")  # undecodable
        else:
            frames.append(frame_for(rng.randrange(4)))
    worker, pool, rings, _, _ = make_acquirer(len(frames), n_rings=2, ring_capacity=32)
    placed = ingest_all(worker, frames)
    enqueued = sum(len(r) for r in rings)
    assert enqueued == sum(idx >= 0 for idx in placed)
    s = worker.stats
    assert s.received == enqueued + s.dropped + s.decode_failed == 200


def test_inline_tx_drain_pushes_frames_to_sink():
    frames = [frame_for(i) for i in range(3)]
    worker, pool, rings, tx, sink = make_acquirer(len(frames), n_rings=1, inline=True)
    ingest_all(worker, frames)
    descs = rings[0].dequeue_burst(10)
    assert len(descs) == 3
    for d in descs:
        tx.append(d)
    assert worker.drain_tx() == 3
    assert len(sink.frames) == 3
    assert sink.frames[0] == frames[0]
    assert pool.in_use_count() == 0


def test_full_pool_drains_tx_before_dropping():
    """When every slot is held by a descriptor waiting on the TX ring, a new
    frame drains the ring to the sink and is stored; nothing is dropped."""
    worker, pool, rings, tx, sink = make_acquirer(n_rings=1, inline=True)
    frames = [frame_for(i) for i in range(pool.capacity)]
    ingest_all(worker, frames)
    for desc in rings[0].dequeue_burst(pool.capacity):
        tx.append(desc)
    assert pool.in_use_count() == pool.capacity
    assert worker.ingest_frame(frame_for(99), 0) == 0
    assert sink.frames == frames
    assert worker.stats.dropped == 0
    assert pool.in_use_count() == 1 and len(tx) == 0
    desc = rings[0].dequeue()
    assert pool.frame(desc.slot, desc.frame_len) == frame_for(99)


@pytest.mark.parametrize("inline", [True, False])
def test_full_pool_with_empty_tx_ring_drops(inline):
    """With nothing on the TX ring to free (or no TX ring), a frame that
    finds the pool full is one drop and holds no slot."""
    worker, pool, rings, tx, sink = make_acquirer(n_rings=1, inline=inline)
    ingest_all(worker, [frame_for(i) for i in range(pool.capacity)])
    assert worker.ingest_frame(frame_for(99), 0) == -1
    assert (worker.stats.received, worker.stats.dropped) == (pool.capacity + 1, 1)
    assert pool.in_use_count() == pool.capacity == len(rings[0])
    assert not sink.frames


def test_passive_mode_tx_drain_is_noop():
    frames = [frame_for(0)]
    worker, pool, rings, tx, sink = make_acquirer(len(frames), n_rings=1, inline=False)
    ingest_all(worker, frames)
    desc = rings[0].dequeue()
    tx.append(desc)
    assert worker.drain_tx() == 0
    assert not sink.frames
    assert len(tx) == 1


def test_udp_and_tcp_flows_spread_consistently():
    # same endpoints, different protocol: allowed to differ, must be stable
    t_tcp = FiveTuple(Proto.TCP, "10.0.0.1", 53, "10.0.0.2", 53)
    t_udp = FiveTuple(Proto.UDP, "10.0.0.1", 53, "10.0.0.2", 53)
    assert rss_hash(t_tcp) != rss_hash(t_udp)  # frozen property of the mix
    frames = [build_ipv4_udp_frame(parse_ip("10.0.0.1"), 53, parse_ip("10.0.0.2"), 53, payload=b"q")]
    worker, pool, rings, _, _ = make_acquirer(len(frames), n_rings=4)
    ingest_all(worker, frames)
    assert sum(len(r) for r in rings) == 1
