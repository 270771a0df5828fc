"""Decode, pool, and canonical-key behavior."""

import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CountingPool, build_ipv4_icmp_frame, build_ipv4_udp_frame, reverse
from ringids import packet
from ringids.packet import (
    SLOT_SIZE,
    DecodeError,
    Direction,
    FiveTuple,
    FrameTooLarge,
    PacketDescriptor,
    PacketPool,
    PoolError,
    PoolExhausted,
    Proto,
    TruncatedFrame,
    UnsupportedL3,
    canonical_key,
    decode,
    format_ip,
    parse_ip,
)
from ringids.harness.synth import build_ipv4_frame, build_ipv4_tcp_frame


@pytest.fixture
def pool():
    return CountingPool(capacity=8)


def test_decode_tcp_frame_offsets_and_tuple(pool):
    frame = build_ipv4_tcp_frame(
        parse_ip("10.0.0.1"), 1234, parse_ip("10.0.0.2"), 80, flags=0x18, seq=77, payload=b"hi", pad_to=60
    )
    desc = decode(frame, 5, pool)
    assert desc.tuple == FiveTuple(Proto.TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
    assert desc.payload_offset == 14 + 20 + 20
    assert desc.payload_len == 2
    assert desc.tcp_seq == 77
    assert desc.arrival_us == 5
    # padding beyond the IP length is not payload
    assert pool.frame(desc.slot, desc.frame_len)[desc.payload_offset : desc.payload_offset + desc.payload_len] == b"hi"


def test_decode_later_fragment_is_portless_other(pool):
    """A non-first fragment's bytes continue the datagram; they are no TCP
    header, so the frame has no ports, flags or sequence number."""
    data = b"GET /evil HTTP/1.1\r\nHost: x\r\n\r\n"
    frame = bytearray(build_ipv4_frame(parse_ip("10.0.0.1"), parse_ip("10.0.0.2"), 6, data))
    frame[20:22] = (0x2000 | 185).to_bytes(2, "big")  # more fragments, offset 185 x 8 bytes
    desc = decode(bytes(frame), 0, pool)
    assert desc.tuple == FiveTuple(Proto.OTHER, "10.0.0.1", 0, "10.0.0.2", 0)
    assert (desc.tcp_flags, desc.tcp_seq) == (0, 0)
    assert desc.payload_offset == 14 + 20
    assert pool.frame(desc.slot, desc.frame_len)[desc.payload_offset : desc.payload_offset + desc.payload_len] == data

    # the first fragment (offset 0, more fragments) still holds the TCP header
    first = bytearray(build_ipv4_tcp_frame(parse_ip("10.0.0.1"), 1234, parse_ip("10.0.0.2"), 80, flags=0x18,
                                           payload=b"hi"))
    first[20:22] = (0x2000).to_bytes(2, "big")
    assert decode(bytes(first), 0, pool).tuple == FiveTuple(Proto.TCP, "10.0.0.1", 1234, "10.0.0.2", 80)


def test_decode_too_short_frame_is_truncated(pool):
    with pytest.raises(TruncatedFrame):
        decode(b"\x00" * 13, 0, pool)
    assert pool.in_use_count() == 0


def test_decode_truncated_claimed_headers(pool):
    frame = bytearray(build_ipv4_tcp_frame(parse_ip("1.1.1.1"), 1, parse_ip("2.2.2.2"), 2, flags=0x02))
    frame[16:18] = (5000).to_bytes(2, "big")  # total length beyond the frame
    with pytest.raises(TruncatedFrame):
        decode(bytes(frame), 0, pool)
    assert pool.in_use_count() == 0


def test_decode_non_ipv4_counts_but_not_ok(pool):
    frame = bytearray(build_ipv4_tcp_frame(parse_ip("1.1.1.1"), 1, parse_ip("2.2.2.2"), 2, flags=0x02))
    frame[12:14] = b"\x86\xdd"  # IPv6 ethertype
    with pytest.raises(UnsupportedL3):
        decode(bytes(frame), 0, pool)
    frame[12:14] = b"\x08\x00"
    frame[14] = 0x65  # IPv4 ethertype, IP version 6
    with pytest.raises(UnsupportedL3):
        decode(bytes(frame), 0, pool)
    assert pool.in_use_count() == 0 and pool.writes == 0  # rejected before the pool


def _edited(frame: bytes, *edits: tuple[int, bytes]) -> bytes:
    out = bytearray(frame)
    for pos, value in edits:
        out[pos : pos + len(value)] = value
    return bytes(out)


def _tot_len(n: int) -> tuple[int, bytes]:
    return 16, n.to_bytes(2, "big")  # the IPv4 total length field


_TCP = build_ipv4_tcp_frame(parse_ip("1.1.1.1"), 1, parse_ip("2.2.2.2"), 2, flags=0x02)  # 20 + 20 B datagram
_UDP = build_ipv4_udp_frame(parse_ip("1.1.1.1"), 1, parse_ip("2.2.2.2"), 2)  # 20 + 8 B datagram
_ICMP = build_ipv4_icmp_frame(parse_ip("1.1.1.1"), parse_ip("2.2.2.2"))


@pytest.mark.parametrize(
    "frame, error, reason",
    [
        pytest.param(_edited(_TCP, (14, b"\x65")), UnsupportedL3, "IP version 6", id="ip-version-6"),
        pytest.param(_edited(_UDP, (14, b"\x4f")), TruncatedFrame, "IPv4 header length", id="ihl-past-frame"),
        pytest.param(_edited(_TCP, _tot_len(30)), TruncatedFrame, "TCP header does not fit", id="tcp-header"),
        pytest.param(_edited(_TCP, (46, b"\x40")), TruncatedFrame, "TCP data offset", id="tcp-offset-below-5"),
        pytest.param(_edited(_TCP, (46, b"\xf0")), TruncatedFrame, "TCP data offset", id="tcp-offset-past-datagram"),
        pytest.param(_edited(_UDP, _tot_len(24)), TruncatedFrame, "UDP header does not fit", id="udp-header"),
        pytest.param(_edited(_ICMP, _tot_len(24)), TruncatedFrame, "ICMP header does not fit", id="icmp-header"),
    ],
)
def test_decode_rejects_each_malformed_header(kernel, frame, error, reason):
    """One frame per error branch of the decoder, under the Python reference
    and the compiled twin: the same error, and no slot taken."""
    pool = CountingPool(capacity=2)
    with pytest.raises(error, match=reason):
        packet.decode(frame, 0, pool)
    assert pool.in_use_count() == 0 and pool.writes == 0


def test_decode_icmp_has_zero_ports_and_flowkey(pool):
    frame = build_ipv4_icmp_frame(parse_ip("10.0.0.9"), parse_ip("10.0.0.8"), payload=b"ping", pad_to=64)
    desc = decode(frame, 0, pool)
    assert desc.tuple.proto is Proto.ICMP
    assert (desc.tuple.src_port, desc.tuple.dst_port) == (0, 0)
    # connectionless traffic still canonicalizes to a flow key
    key, _ = canonical_key(desc.tuple)
    assert key == canonical_key(reverse(desc.tuple))[0]


def test_decode_udp(pool):
    frame = build_ipv4_udp_frame(parse_ip("10.0.0.1"), 53, parse_ip("10.0.0.2"), 5353, payload=b"q")
    desc = decode(frame, 0, pool)
    assert desc.tuple.proto is Proto.UDP
    assert desc.payload_len == 1


def test_pool_exhaustion_and_double_release():
    pool = PacketPool(capacity=1)
    frame = build_ipv4_udp_frame(parse_ip("1.0.0.1"), 1, parse_ip("1.0.0.2"), 2)
    desc = decode(frame, 0, pool)
    with pytest.raises(PoolExhausted):
        decode(frame, 0, pool)
    pool.release(desc.slot)
    with pytest.raises(PoolError):
        pool.release(desc.slot)


@pytest.mark.parametrize("slot, length", [(-1, 10), (4, 10), (0, 5000), (0, SLOT_SIZE + 1), (0, -1)])
def test_pool_frame_rejects_a_slot_or_length_outside_the_pool(slot, length):
    """``frame`` checks its slot as ``release`` does, and its length against
    one slot: slot -1 would wrap to the last slot, and a long read would run
    into the slots after it."""
    pool = PacketPool(capacity=4)
    for i in range(4):
        pool.store(bytes([i + 1]) * 64)
    with pytest.raises(PoolError):
        pool.frame(slot, length)
    assert pool.frame(3, SLOT_SIZE) == bytes([4]) * 64 + bytes(SLOT_SIZE - 64)
    assert pool.frame(0, 0) == b""


def test_pool_single_write_per_packet(pool):
    frame = build_ipv4_udp_frame(parse_ip("1.0.0.1"), 1, parse_ip("1.0.0.2"), 2)
    for _ in range(5):
        desc = decode(frame, 0, pool)
        pool.release(desc.slot)
    assert pool.writes == 5


def test_canonical_key_symmetry_and_direction():
    t = FiveTuple(Proto.TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
    key_fwd, dir_fwd = canonical_key(t)
    key_rev, dir_rev = canonical_key(reverse(t))
    assert key_fwd == key_rev
    assert dir_fwd != dir_rev


def test_canonical_key_equal_endpoints_is_forward():
    t = FiveTuple(Proto.TCP, "10.0.0.1", 80, "10.0.0.1", 80)
    key, direction = canonical_key(t)
    assert key is t and direction is Direction.FORWARD


def test_canonical_key_distinguishes_protocol():
    a = FiveTuple(Proto.TCP, "10.0.0.1", 5, "10.0.0.2", 6)
    b = FiveTuple(Proto.UDP, "10.0.0.1", 5, "10.0.0.2", 6)
    assert canonical_key(a)[0] != canonical_key(b)[0]


def test_canonical_key_random_tuples_idempotent_reverse_invariant():
    rng = random.Random(99)
    for _ in range(2000):
        t = FiveTuple(
            Proto.TCP if rng.random() < 0.5 else Proto.UDP,
            rng.getrandbits(32),
            rng.randrange(65536),
            rng.getrandbits(32),
            rng.randrange(65536),
        )
        key, direction = canonical_key(t)
        assert canonical_key(reverse(t))[0] == key
        # a tuple in canonical order is its own key; a reversed one gets a new FiveTuple
        if direction is Direction.FORWARD:
            assert key is t
        else:
            assert type(key) is FiveTuple and key == reverse(t)
        # canonicalizing the canonical orientation is a fixed point
        key2, d2 = canonical_key(key)
        assert key2 is key and d2 is Direction.FORWARD


def test_decode_roundtrip_random_payload(pool):
    rng = random.Random(5)
    for _ in range(50):
        payload = rng.randbytes(rng.randrange(0, 200))
        src, dst = rng.getrandbits(32), rng.getrandbits(32)
        sp, dp = rng.randrange(1, 65536), rng.randrange(1, 65536)
        frame = build_ipv4_tcp_frame(src, sp, dst, dp, flags=0x10, seq=3, payload=payload)
        desc = decode(frame, 0, pool)
        assert desc.tuple == FiveTuple(Proto.TCP, src, sp, dst, dp)
        frame = pool.frame(desc.slot, desc.frame_len)
        assert frame[desc.payload_offset : desc.payload_offset + desc.payload_len] == payload
        pool.release(desc.slot)


def test_ip_parse_format_roundtrip():
    for s in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "192.168.1.77"):
        assert format_ip(parse_ip(s)) == s


def test_records_are_immutable_named_tuples():
    t = FiveTuple(Proto.TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
    desc = PacketDescriptor(slot=3, frame_len=60, arrival_us=7, tuple=t)
    for record, name in ((t, "src_ip"), (t, "proto"), (desc, "slot"), (desc, "tuple")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for record in (t, desc):
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict to grow
    assert FiveTuple._fields == ("proto", "src_ip", "src_port", "dst_ip", "dst_port")
    assert PacketDescriptor._fields[:4] == ("slot", "frame_len", "arrival_us", "tuple")
    assert desc[3:] == (t, 0, 0, 0, 0)
    # records compare and hash as the plain tuple of their fields
    assert t == (Proto.TCP, parse_ip("10.0.0.1"), 1234, parse_ip("10.0.0.2"), 80)
    assert hash(t) == hash(tuple(t))
    assert str(t) == "TCP 10.0.0.1:1234 -> 10.0.0.2:80"


def test_five_tuple_constructor_coerces_and_validates():
    t = FiveTuple(Proto.UDP, "192.168.1.7", 53, 0x0A000001, 5353)
    assert (t.src_ip, t.dst_ip) == (0xC0A80107, 0x0A000001)
    assert FiveTuple(Proto.ICMP, "1.2.3.4", 0, "5.6.7.8", 0).src_port == 0
    for proto in (Proto.ICMP, Proto.OTHER):
        with pytest.raises(ValueError, match="portless"):
            FiveTuple(proto, "1.2.3.4", 1, "5.6.7.8", 0)
        with pytest.raises(ValueError, match="portless"):
            FiveTuple(proto, "1.2.3.4", 0, "5.6.7.8", 9)
    with pytest.raises(ValueError):
        FiveTuple(Proto.TCP, "1.2.3", 1, "5.6.7.8", 2)
    with pytest.raises(ValueError):
        FiveTuple(Proto.TCP, "1.2.3.4", 1, "5.6.7.256", 2)


@st.composite
def frames(draw):
    """Arbitrary bytes, or a well-formed frame of any protocol, maybe a
    fragment, with some header bytes overwritten and its tail possibly cut
    off."""
    kind = draw(st.sampled_from(["raw", "tcp", "udp", "icmp", "other", "oversize"]))
    if kind == "raw":
        return draw(st.binary(max_size=80))
    src, dst = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    sp, dp = draw(st.integers(0, 65535)), draw(st.integers(0, 65535))
    payload = draw(st.binary(max_size=64))
    if kind == "udp":
        frame = bytearray(build_ipv4_udp_frame(src, sp, dst, dp, payload=payload))
    elif kind == "icmp":
        frame = bytearray(build_ipv4_icmp_frame(src, dst, payload=payload))
    else:
        frame = bytearray(build_ipv4_tcp_frame(src, sp, dst, dp, flags=draw(st.integers(0, 255)),
                                               seq=draw(st.integers(0, 2**32 - 1)), payload=payload))
        if kind == "other":
            frame[23] = draw(st.sampled_from([0, 2, 47, 50, 132, 255]))
        elif kind == "oversize":
            frame += bytes(SLOT_SIZE + 1 - len(frame) + draw(st.integers(0, 8)))
    if draw(st.booleans()):  # flags and fragment offset: a first, later or lone fragment
        frame[20:22] = draw(st.sampled_from([0x0000, 0x2000, 0x4000, 0x2001, 185, 0x1FFF, 0xFFFF])).to_bytes(2, "big")
    for pos, value in draw(st.lists(st.tuples(st.integers(12, 60), st.integers(0, 255)), max_size=3)):
        if pos < len(frame):
            frame[pos] = value
    return bytes(frame[: draw(st.integers(0, len(frame)))]) if draw(st.booleans()) else bytes(frame)


@given(frames())
def test_decode_arbitrary_bytes_raises_only_decode_errors(frame):
    pool = PacketPool(capacity=2)
    try:
        desc = decode(frame, 9, pool)
    except DecodeError:
        assert pool.in_use_count() == 0
        return
    assert pool.in_use_count() == 1
    assert (desc.frame_len, desc.arrival_us) == (len(frame), 9)
    t = desc.tuple
    assert type(t) is FiveTuple and type(t.proto) is Proto
    assert t == FiveTuple(*t)  # the validating constructor accepts what decode built
    assert 0 <= desc.payload_offset and desc.payload_offset + desc.payload_len <= len(frame)
    if int.from_bytes(frame[20:22], "big") & 0x1FFF:
        assert t.proto is Proto.OTHER and desc.payload_offset == 14 + (frame[14] & 0x0F) * 4
    pool.release(desc.slot)
    assert pool.in_use_count() == 0


@pytest.fixture(scope="module")
def native_decode(native_dfa):
    return packet._bind_decoder(native_dfa)


def full_pool() -> CountingPool:
    pool = CountingPool(capacity=1)
    pool.store(bytes(60))
    return pool


def decode_outcome(decode_fn, frame, pool):
    """The descriptor ``decode_fn`` returns or the type and message of what it
    raises, then the pool's slots in use and writes."""
    try:
        result = decode_fn(frame, 9, pool)
    except Exception as exc:  # noqa: BLE001 - any error must be the reference's
        result = (type(exc), str(exc))
    return result, pool.in_use_count(), pool.writes


def assert_twin_decodes_as_reference(native_decode, frame):
    for variant in (frame, bytearray(frame), memoryview(frame)):
        for make_pool in (lambda: CountingPool(capacity=2), full_pool):
            ref_pool, twin_pool = make_pool(), make_pool()
            want = decode_outcome(packet._decode, variant, ref_pool)
            got = decode_outcome(native_decode, variant, twin_pool)
            assert got == want
            desc = got[0]
            if isinstance(desc, PacketDescriptor):
                assert type(desc) is PacketDescriptor and type(desc.tuple) is FiveTuple
                assert desc.tuple.proto is want[0].tuple.proto
                assert twin_pool.frame(desc.slot, desc.frame_len) == ref_pool.frame(want[0].slot, want[0].frame_len) == bytes(frame)


@given(frames())
def test_native_decode_equals_reference(native_decode, frame):
    """The compiled decoder gives the reference's descriptor or error, and
    leaves the pool as the reference does, from bytes, a bytearray or a
    memoryview and on a pool with or without a free slot."""
    assert_twin_decodes_as_reference(native_decode, frame)


def test_native_decode_pool_errors_equal_reference(native_decode):
    udp = build_ipv4_udp_frame(parse_ip("1.0.0.1"), 1, parse_ip("1.0.0.2"), 2, payload=b"q")
    oversize = udp + bytes(SLOT_SIZE + 1 - len(udp))
    assert_twin_decodes_as_reference(native_decode, oversize)
    assert decode_outcome(native_decode, oversize, CountingPool(capacity=2))[0][0] is FrameTooLarge
    assert decode_outcome(native_decode, udp, full_pool()) == (
        (PoolExhausted, "packet pool has no free slot"), 1, 1,
    )


def test_native_decode_rejects_malformed_calls(native_decode, native_dfa):
    frame = bytearray(build_ipv4_udp_frame(parse_ip("1.0.0.1"), 1, parse_ip("1.0.0.2"), 2))
    pool = CountingPool(capacity=2)
    for args in ((), (frame, 0), (frame, 0, pool, 0)):
        with pytest.raises(TypeError, match="takes 3 arguments"):
            native_decode(*args)
    for not_a_buffer in (None, "frame", list(frame)):
        with pytest.raises(TypeError):
            native_decode(not_a_buffer, 0, pool)
    view = memoryview(frame)
    with pytest.raises(BufferError):
        native_decode(view[::2], 0, pool)
    view.release()
    with pytest.raises(AttributeError):
        native_decode(frame, 0, object())  # no store method
    assert pool.in_use_count() == pool.writes == 0
    frame.append(0)  # resizing raises BufferError while a buffer export is held
    with pytest.raises(TypeError, match="takes 8 arguments"):
        native_dfa.decoder(PacketDescriptor)
    bound = (PacketDescriptor, FiveTuple, *Proto, TruncatedFrame, UnsupportedL3)
    for pos, wrong in ((0, list), (1, "FiveTuple"), (6, ValueError()), (7, int)):
        with pytest.raises(TypeError):
            native_dfa.decoder(*bound[:pos], wrong, *bound[pos + 1:])


def resident_pages() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1])


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_pool_slab_is_paged_in_only_when_written():
    page = os.sysconf("SC_PAGE_SIZE")
    before = resident_pages()
    big = PacketPool(100_000)  # a ~195 MiB slab
    grown = resident_pages() - before
    assert grown * page < 2**20  # the ownership bytes, not the slab
    frames = [bytes([i]) * 1500 for i in range(10)]
    before = resident_pages()
    slots = [big.store(f) for f in frames]
    assert resident_pages() - before <= 16  # 10 slots of 2 KiB span 5 pages
    assert [big.frame(s, len(f)) for s, f in zip(slots, frames)] == frames


def test_pool_hands_out_slots_in_lifo_order():
    """Released slots go out last-in first-out, before the lowest slot never used."""
    pool = PacketPool(capacity=8)
    handed = []
    # "s" stores a frame; an int releases the slot handed out at that index
    for op in ["s", "s", "s", 1, "s", "s", 0, 4, "s", "s", "s", 2, 6, "s", "s", "s", "s"]:
        if op == "s":
            handed.append(pool.store(bytes(64)))
        else:
            pool.release(handed[op])
    assert handed == [0, 1, 2, 1, 3, 3, 0, 4, 0, 2, 5, 6]
    assert pool.in_use_count() == 7
    assert pool.store(bytes(64)) == 7
    with pytest.raises(PoolExhausted):
        pool.store(bytes(64))
