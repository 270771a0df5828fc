"""Flow table, TCP state machine, and reassembly against a byte-map oracle."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import flipped, reverse

from ringids.flow import (
    FLOW_BASE_BYTES,
    SWEEP_US,
    TCP_TIMEOUT_US,
    UDP_TIMEOUT_US,
    Flow,
    FlowState,
    FlowTable,
    SegmentBuffer,
    update_flow,
)
from ringids.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    Direction,
    FiveTuple,
    PacketDescriptor,
    Proto,
    canonical_key,
)


def make_desc(proto=Proto.TCP, flags=0, seq=0, src_port=1000, dst_port=80):
    t = FiveTuple(proto, "10.0.0.1", src_port if proto is Proto.TCP or proto is Proto.UDP else 0,
                  "10.0.0.2", dst_port if proto is Proto.TCP or proto is Proto.UDP else 0)
    return PacketDescriptor(slot=0, frame_len=60, arrival_us=0, tuple=t, tcp_flags=flags, tcp_seq=seq)


def key_of(desc):
    return canonical_key(desc.tuple)


def test_lookup_or_create_and_reverse_hits_same_flow():
    table = FlowTable()
    desc = make_desc()
    key, direction = key_of(desc)
    flow = table.lookup_or_create(key, direction, 100)
    assert table.created_total == 1 and flow.last_seen_us == 100
    assert flow.state is FlowState.NEW and flow.initiator_direction is direction
    assert (flow.fwd, flow.rev) == (None, None)
    rev_key, rev_dir = canonical_key(reverse(desc.tuple))
    flow2 = table.lookup_or_create(rev_key, rev_dir, 200)
    assert flow2 is flow and table.created_total == 1
    assert flow.initiator_direction is direction
    assert flow.last_seen_us == 200  # the table stamps each lookup
    assert rev_dir != direction


def test_full_table_evicts_the_flow_seen_least_recently():
    table = FlowTable(max_flows=3)
    keys = [canonical_key(FiveTuple(Proto.TCP, 0x0A000001 + i, 1000, 0x0A0000FF, 80))[0] for i in range(4)]
    flows = [table.lookup_or_create(key, Direction.FORWARD, i) for i, key in enumerate(keys[:3])]
    for seq in (100, 200):  # a gap: the flow to be evicted holds buffered bytes
        table.reassemble(flows[1].side(Direction.FORWARD), seq, b"ab")
    assert flows[1].footprint_bytes == FLOW_BASE_BYTES + 2
    table.lookup_or_create(keys[0], Direction.FORWARD, 3)  # touched, the first-created flow is the newest
    table.lookup_or_create(keys[3], Direction.FORWARD, 4)
    assert table.created_total == 4
    assert [f.key for f in table] == [keys[2], keys[0], keys[3]]  # least recently seen first
    assert len(table) == table.max_flows
    assert table.footprint_bytes == sum(f.footprint_bytes for f in table) == 3 * FLOW_BASE_BYTES
    assert table.evicted_total == 1


def test_table_of_no_flows_rejected():
    with pytest.raises(ValueError):
        FlowTable(max_flows=0)


def test_handshake_reaches_established():
    table = FlowTable()
    syn = make_desc(flags=TCP_SYN)
    key, d_fwd = key_of(syn)
    flow = table.lookup_or_create(key, d_fwd, 0)
    update_flow(flow, syn, d_fwd)
    assert flow.state is FlowState.SYN_SEEN
    synack = make_desc(flags=TCP_SYN | TCP_ACK)
    update_flow(flow, synack, flipped(d_fwd))
    assert flow.state is FlowState.SYN_SEEN
    ack = make_desc(flags=TCP_ACK)
    update_flow(flow, ack, d_fwd)
    assert flow.state is FlowState.ESTABLISHED
    assert flow.saw_established
    assert flow.fwd is not None and flow.rev is not None


def test_bidirectional_fallback_established():
    table = FlowTable()
    data = make_desc(flags=TCP_ACK)
    key, d = key_of(data)
    flow = table.lookup_or_create(key, d, 0)
    update_flow(flow, data, d)
    assert flow.state is FlowState.NEW
    update_flow(flow, data, flipped(d))
    assert flow.state is FlowState.ESTABLISHED


def test_fin_both_directions_closes():
    table = FlowTable()
    desc = make_desc(flags=TCP_ACK)
    key, d = key_of(desc)
    flow = table.lookup_or_create(key, d, 0)
    update_flow(flow, desc, d)
    update_flow(flow, desc, flipped(d))
    assert flow.state is FlowState.ESTABLISHED
    update_flow(flow, make_desc(flags=TCP_FIN | TCP_ACK), d)
    assert flow.state is FlowState.CLOSING
    update_flow(flow, make_desc(flags=TCP_FIN | TCP_ACK), flipped(d))
    assert flow.state is FlowState.CLOSED


def test_nonsense_flags_recorded_not_transitioned():
    table = FlowTable()
    desc = make_desc(flags=TCP_SYN | TCP_FIN)
    key, d = key_of(desc)
    flow = table.lookup_or_create(key, d, 0)
    side = update_flow(flow, desc, d)
    assert side is flow.side(d) and side.buf.delivered_upto is None  # nor anchors the stream
    assert flow.state is FlowState.NEW
    assert flow.bad_flag_events == 1


def test_udp_established_on_reverse():
    table = FlowTable()
    desc = make_desc(proto=Proto.UDP)
    key, d = key_of(desc)
    flow = table.lookup_or_create(key, d, 0)
    update_flow(flow, desc, d)
    assert flow.state is FlowState.NEW
    update_flow(flow, desc, flipped(d))
    assert flow.state is FlowState.ESTABLISHED


def test_expire_flows_and_footprint_conservation():
    table = FlowTable()
    keys = [canonical_key(FiveTuple(Proto.TCP, 0x0A000001 + i, 5, 0x0A00FF01, 80))[0] for i in range(10)]
    for i, key in enumerate(keys):
        flow = table.lookup_or_create(key, Direction.FORWARD, i * 1_000_000)
        flow.last_seen_us = i * 1_000_000
    assert table.footprint_bytes == 10 * FLOW_BASE_BYTES
    # the 30 s TCP timeout at t=35.5s evicts flows last seen before 5.5s
    evicted = table.expire_flows(35_500_000)
    assert len(evicted) == 6
    assert len(table) == 4
    assert table.footprint_bytes == sum(f.footprint_bytes for f in table)


def test_expire_uses_per_proto_defaults():
    table = FlowTable()
    tcp_key = canonical_key(FiveTuple(Proto.TCP, "10.0.0.1", 1, "10.0.0.2", 2))[0]
    udp_key = canonical_key(FiveTuple(Proto.UDP, "10.0.0.1", 1, "10.0.0.2", 2))[0]
    table.lookup_or_create(tcp_key, Direction.FORWARD, 0)
    table.lookup_or_create(udp_key, Direction.FORWARD, 0)
    # 11s idle: beyond the UDP timeout, within the TCP one
    evicted = table.expire_flows(11_000_000)
    assert [f.key.proto for f in evicted] == [Proto.UDP]


# --- the bounded, last-seen-ordered table --------------------------------

TABLE_KEYS = [
    canonical_key(FiveTuple(proto, 0x0A000001, 1000 + i, 0x0A000002, 80))[0]
    for proto in (Proto.TCP, Proto.UDP)
    for i in range(3)
]
# advances that land idle times on and just past each timeout and sweep period
_ADVANCE = st.one_of(
    st.sampled_from([0, 1, SWEEP_US, UDP_TIMEOUT_US, TCP_TIMEOUT_US - UDP_TIMEOUT_US, TCP_TIMEOUT_US]),
    st.integers(0, 12_000_000),
)


@given(
    max_flows=st.integers(1, 4),
    steps=st.lists(st.tuples(st.booleans(), st.integers(0, len(TABLE_KEYS) - 1), _ADVANCE), max_size=40),
)
def test_table_keys_equal_a_reference_model(max_flows, steps):
    """Lookups and sweeps at non-decreasing times keep the table's keys
    equal to a plain model's: a full sweep of every key idle past its
    protocol's timeout, at each explicit sweep and at the first lookup of
    each new ``SWEEP_US`` period, and, on a full table, eviction of the key
    looked up least recently. Footprint is conserved after every step."""
    table = FlowTable(max_flows=max_flows)
    last_seen: dict[FiveTuple, int] = {}
    last_lookup: dict[FiveTuple, int] = {}  # step of each key's latest lookup
    next_sweep, now = SWEEP_US, 0

    def full_sweep():
        for key, seen in list(last_seen.items()):
            if now - seen > (TCP_TIMEOUT_US if key.proto is Proto.TCP else UDP_TIMEOUT_US):
                del last_seen[key], last_lookup[key]

    for step, (sweep, k, advance) in enumerate(steps):
        now += advance
        key = TABLE_KEYS[k]
        if sweep:
            table.expire_flows(now)
            full_sweep()
        else:
            if now >= next_sweep:
                next_sweep = (now // SWEEP_US + 1) * SWEEP_US
                full_sweep()
            if key not in last_seen and len(last_seen) >= max_flows:
                oldest = min(last_lookup, key=last_lookup.get)
                del last_seen[oldest], last_lookup[oldest]
            last_seen[key], last_lookup[key] = now, step
            flow = table.lookup_or_create(key, Direction.FORWARD, now)
            if key.proto is Proto.TCP:  # each lookup buffers two bytes behind a gap
                table.reassemble(flow.side(Direction.FORWARD), 10 * step, b"ab")
        assert {f.key for f in table} == set(last_seen)
        assert table.footprint_bytes == sum(f.footprint_bytes for f in table)
        assert table.created_total - table.evicted_total == len(table)


class _CountingFlow(Flow):
    """A flow that records each read of its last-seen time."""

    reads: list = []

    @property
    def last_seen_us(self):
        self.reads.append(self)
        return self.__dict__["last_seen_us"]

    @last_seen_us.setter
    def last_seen_us(self, value):
        self.__dict__["last_seen_us"] = value


def test_sweep_with_nothing_idle_past_the_shorter_timeout_examines_one_flow():
    table = FlowTable()
    n = 20_000
    for i in range(n):
        proto = Proto.TCP if i % 2 else Proto.UDP
        table.lookup_or_create(*canonical_key(FiveTuple(proto, 0x0A000000 + i, 1000, 0x0B000001, 80)), i)
    for flow in table:
        flow.__class__ = _CountingFlow
    reads = _CountingFlow.reads = []
    assert table.expire_flows(UDP_TIMEOUT_US) == []  # the oldest flow is idle exactly that long
    assert len({id(f) for f in reads}) <= 1
    # the count sees a walk: past both timeouts every flow is examined
    reads.clear()
    assert len(table.expire_flows(n + TCP_TIMEOUT_US + 1)) == n
    assert len({id(f) for f in reads}) == n


def test_lookups_sweep_once_per_sweep_period(monkeypatch):
    swept = []
    expire = FlowTable.expire_flows

    def counting(table, now_us):
        swept.append(now_us)
        return expire(table, now_us)

    monkeypatch.setattr(FlowTable, "expire_flows", counting)
    table = FlowTable()
    key = TABLE_KEYS[0]
    for now in (0, SWEEP_US - 1, SWEEP_US, SWEEP_US + 1, 3 * SWEEP_US + 5, 3 * SWEEP_US + 6, 4 * SWEEP_US):
        table.lookup_or_create(key, Direction.FORWARD, now)
    assert swept == [SWEEP_US, 3 * SWEEP_US + 5, 4 * SWEEP_US]


def test_footprint_in_documented_band_at_32k_flows():
    # 32,000 flows must land inside [62.5 MiB, 125 MiB]
    total = 32_000 * FLOW_BASE_BYTES
    assert 62.5 * 2**20 <= total <= 125 * 2**20


# --- reassembly ---------------------------------------------------------


def test_in_order_delivery():
    buf = SegmentBuffer(delivered_upto=0)
    assert buf.insert(0, b"0123456789") == b"0123456789"
    assert buf.insert(10, b"abcde") == b"abcde"
    assert buf.delivered_upto == 15


def test_gap_fill():
    buf = SegmentBuffer(delivered_upto=0)
    assert buf.insert(10, b"ABCDEFGHIJ") == b""
    assert buf.insert(0, b"0123456789") == b"0123456789ABCDEFGHIJ"


def test_first_arrival_wins_on_overlap():
    buf = SegmentBuffer(delivered_upto=0)
    assert buf.insert(0, b"A" * 10) == b"A" * 10
    assert buf.insert(5, b"B" * 10) == b"B" * 5
    # stream is bytes 0-9 'A' then 10-14 'B'


def test_overlap_pending_first_wins():
    buf = SegmentBuffer(delivered_upto=0)
    assert buf.insert(5, b"X" * 10) == b""  # pending [5,15)
    assert buf.insert(3, b"y" * 10) == b""  # only [3,5) survives
    assert buf.insert(0, b"z" * 3) == b"zzzyyXXXXXXXXXX"


def test_duplicate_segment_ignored():
    buf = SegmentBuffer(delivered_upto=0)
    buf.insert(0, b"hello")
    assert buf.insert(0, b"hello") == b""
    assert buf.pending_bytes == 0


def test_syn_seeds_reassembly_base():
    table = FlowTable()
    syn = make_desc(flags=TCP_SYN, seq=99)
    key, d = key_of(syn)
    flow = table.lookup_or_create(key, d, 0)
    side = update_flow(flow, syn, d)
    assert side.buf.delivered_upto == 100
    # data before the gap is filled stays pending
    assert table.reassemble(side, 110, b"late") == b""
    assert table.reassemble(side, 100, b"0123456789") == b"0123456789late"


def test_cap_triggers_gap_flush():
    table = FlowTable(reassembly_cap=64)
    syn = make_desc(flags=TCP_SYN, seq=99)
    key, d = key_of(syn)
    flow = table.lookup_or_create(key, d, 0)
    side = update_flow(flow, syn, d)
    # hold a gap at 100 and exceed the pending cap
    assert table.reassemble(side, 110, b"x" * 60) == b""
    delivered = table.reassemble(side, 170, b"y" * 40)
    assert delivered == b"x" * 60 + b"y" * 40  # oldest gap abandoned
    assert table.buffer_limit_events == 1


def test_cap_bounds_pending_bytes_behind_short_runs(monkeypatch):
    """An insert flushes gaps until the pending bytes are under the cap,
    however short the oldest buffered runs are, and counts every flush."""
    flushes = []
    flush = SegmentBuffer.flush_oldest_gap
    monkeypatch.setattr(SegmentBuffer, "flush_oldest_gap", lambda buf: flushes.append(1) or flush(buf))
    table = FlowTable(reassembly_cap=1_000)
    key, d = key_of(make_desc())
    flow = table.lookup_or_create(key, d, 0)
    side = flow.side(d)
    table.reassemble(side, 0, b"a")  # anchors the stream at 0
    for pos in range(2, 800, 2):  # 399 one-byte pieces, each behind a one-byte hole
        table.reassemble(side, pos, b"p")
    buf = side.buf
    for pos in range(801, 801 + 50 * 101, 101):  # 100 B segments, each behind a further hole
        table.reassemble(side, pos, b"s" * 100)
        assert buf.pending_bytes <= table.reassembly_cap
    assert table.buffer_limit_events == len(flushes) > 50
    assert table.footprint_bytes == flow.footprint_bytes


def first_wins_write(mem: dict, seq: int, payload) -> None:
    """Write one arrival into the byte map; the first writer to a position wins."""
    for i, b in enumerate(payload):
        mem.setdefault(seq + i, b)


def oracle_first_wins(base: int, arrivals):
    """Byte map in arrival order; first writer to a position wins."""
    mem = {}
    for seq, payload in arrivals:
        first_wins_write(mem, seq, payload)
    out = bytearray()
    pos = base
    while pos in mem:
        out.append(mem[pos])
        pos += 1
    return bytes(out)


def assert_runs_well_formed(buf: SegmentBuffer) -> None:
    """The buffer's runs are sorted, non-empty, and neither overlap nor touch,
    all past ``delivered_upto``, and ``pending_bytes`` is their total length."""
    end = buf.delivered_upto
    for start, run in buf._pieces:
        assert run and start > end, (start, len(run), end)
        end = start + len(run)
    assert buf.pending_bytes == sum(len(run) for _, run in buf._pieces)


def test_reassembly_random_permutations_match_oracle():
    rng = random.Random(31337)
    for stream_no in range(60):
        # build a stream of contiguous chunks, then shuffle arrival order
        base = rng.randrange(0, 1 << 20)
        chunks = []
        pos = base
        for _ in range(rng.randrange(2, 12)):
            size = rng.randrange(1, 120)
            chunks.append((pos, rng.randbytes(size)))
            pos += size
        # sprinkle overlapping duplicates
        for _ in range(rng.randrange(0, 4)):
            seq, payload = chunks[rng.randrange(len(chunks))]
            cut = rng.randrange(0, len(payload))
            chunks.append((seq + cut, rng.randbytes(len(payload) - cut)))
        for _ in range(10):
            arrivals = chunks[:]
            rng.shuffle(arrivals)
            buf = SegmentBuffer(delivered_upto=base)
            delivered, mem = b"", {}
            for s, p in arrivals:
                delivered += buf.insert(s, p)
                first_wins_write(mem, s, p)
                assert_runs_well_formed(buf)
                buffered = {start + i: b for start, run in buf._pieces for i, b in enumerate(run)}
                assert buffered == {at: b for at, b in mem.items() if at >= buf.delivered_upto}
            assert delivered == oracle_first_wins(base, arrivals), f"stream {stream_no}"
            assert buf.delivered_upto == base + len(delivered)


def test_in_order_fast_path_equals_buffered_path():
    rng = random.Random(2718)
    fast_hits = 0
    for _ in range(150):
        base = rng.randrange(0, 1 << 20)
        fast, slow = SegmentBuffer(delivered_upto=base), SegmentBuffer(delivered_upto=base)
        pos = base
        for _ in range(rng.randrange(1, 20)):
            size = rng.randrange(0, 90)
            roll = rng.random()
            if roll < 0.6:
                seq = pos  # in order
            elif roll < 0.8:
                seq = pos + rng.randrange(1, 50)  # leaves a gap
            else:
                seq = max(base, pos - rng.randrange(1, 50))  # retransmit overlap
            payload = memoryview(bytearray(rng.randbytes(size)))
            fast_hits += seq == fast.delivered_upto and not fast._pieces
            got = fast.insert(seq, payload)
            want = slow._insert_buffered(seq, payload)
            assert got == want and type(got) is bytes
            assert (fast.delivered_upto, fast.pending_bytes, fast._pieces) == (
                slow.delivered_upto, slow.pending_bytes, slow._pieces)
            assert_runs_well_formed(fast)  # an empty payload adds no run
            pos = max(pos, seq + size)
    assert fast_hits > 300


def test_sequence_wrap_keeps_delivering():
    buf = SegmentBuffer()
    assert buf.insert(2**32 - 4, b"abcd") == b"abcd"
    assert buf.insert(0, b"efgh") == b"efgh"
    assert buf.insert(8, b"mn") == b""  # out of order past the wrap
    assert buf.insert(4, b"ijkl") == b"ijklmn"
    assert buf.insert(2**32 - 2, b"cdefgh") == b""  # retransmission from before the wrap
    assert buf.delivered_upto == 2**32 + 10
    assert buf.pending_bytes == 0


def test_syn_at_top_of_sequence_space():
    table = FlowTable()
    syn = make_desc(flags=TCP_SYN, seq=2**32 - 1)
    key, d = key_of(syn)
    flow = table.lookup_or_create(key, d, 0)
    side = update_flow(flow, syn, d)
    assert table.reassemble(side, 3, b"late") == b""
    assert table.reassemble(side, 0, b"abc") == b"abclate"


@given(
    isn_below_wrap=st.one_of(st.integers(1, 600), st.integers(1, 2**16)),  # many streams cross 2**32
    sizes=st.lists(st.integers(1, 120), min_size=1, max_size=12),
    overlaps=st.integers(0, 3),
    rng=st.randoms(use_true_random=False),
)
def test_reassembly_across_sequence_wrap_matches_oracle(isn_below_wrap, sizes, overlaps, rng):
    isn = 2**32 - isn_below_wrap
    chunks, pos = [], isn  # (stream position, payload)
    for size in sizes:
        chunks.append((pos, rng.randbytes(size)))
        pos += size
    for _ in range(overlaps):
        start, payload = rng.choice(chunks)
        cut = rng.randrange(len(payload))
        chunks.append((start + cut, rng.randbytes(len(payload) - cut + rng.randrange(0, 40))))
    rng.shuffle(chunks)
    buf = SegmentBuffer(delivered_upto=isn)
    delivered = b"".join(buf.insert(start & 0xFFFFFFFF, payload) for start, payload in chunks)
    assert delivered == oracle_first_wins(isn, chunks)
    assert buf.delivered_upto == isn + len(delivered)
