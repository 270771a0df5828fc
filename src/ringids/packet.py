"""Frame decoding into pool-backed packet descriptors.

Raw Ethernet frames are copied once into a shared byte pool; everything
downstream (rings, flow tracking, rule matching) works on descriptors that
reference the pool slot plus decoded header fields. After that store, each
analysed packet copies its payload out of the slab once, the flow's
reassembly buffers copy what they hold, and the inline TX drain copies each
forwarded frame once to the sink.

``FiveTuple`` and ``PacketDescriptor`` are named tuples, so building,
hashing and comparing one runs in C: a record is built for every frame, and
the 5-tuple keys the dispatch memo. A record therefore compares equal to the
plain tuple of its fields.

A flow's key is its canonical ``FiveTuple``: the one whose source endpoint
compares no higher than its destination. A packet already in canonical order
is its own flow key, and ``canonical_key`` builds no record for it.

The enum members are also bound to module constants (``TCP``, ``FORWARD``,
...), and the per-frame code reads those. Reading a member through its class,
as in ``Proto.TCP``, goes through the enum metaclass's attribute hook and
costs about ten times a module global; a frame would pay it about ten times.

``decode`` is the compiled twin from the optional extension ``_dfa`` where it
imports, bound once here by ``_bind_decoder``: it runs every check of the
Python body ``_decode`` in the same order with the same errors, takes its
slot through ``pool.store`` after the last check, and builds both records in
C. ``_decode`` is the reference its parity tests compare it against, and is
``decode`` where the extension is absent. "native" in
``matching.kernel_name()`` means both of the extension's twins are in use:
the scan kernel and this decoder.
"""

from __future__ import annotations

import mmap
import struct
from collections import deque
from enum import Enum, IntEnum
from typing import NamedTuple

try:
    from . import _dfa
except ImportError:
    _dfa = None

ETHER_HDR_LEN = 14
ETHERTYPE_IPV4 = 0x0800
SLOT_SIZE = 2048  # covers a 1518B frame with headroom, mbuf-style

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

_IPV4_HDR = struct.Struct(">BxH2xHxB2xII")  # version/IHL, total length, flags/fragment, protocol, src, dst
_TCP_HDR = struct.Struct(">HHI4xBB")  # ports, seq, data offset, flags
_PORTS = struct.Struct(">HH")
_FLOW_KEY_BYTES = struct.Struct(">BIHIH")  # a flow key's fields: protocol, then its two endpoints


class Proto(IntEnum):
    """Transport protocol carried in the 5-tuple (IANA numbers)."""

    OTHER = 0
    ICMP = 1
    TCP = 6
    UDP = 17

    @property
    def label(self) -> str:
        return self.name


class Direction(Enum):
    """Orientation of a packet relative to its flow's canonical key."""

    FORWARD = 0
    REVERSE = 1


# read on the per-frame path instead of ``Proto.TCP`` and the like
OTHER, ICMP, TCP, UDP = Proto.OTHER, Proto.ICMP, Proto.TCP, Proto.UDP
FORWARD, REVERSE = Direction.FORWARD, Direction.REVERSE


class DecodeError(Exception):
    """Base class for frame ingestion failures."""


class TruncatedFrame(DecodeError):
    """Frame is shorter than its own headers claim."""


class UnsupportedL3(DecodeError):
    """Frame carries no IPv4 packet; the matcher cannot analyse it."""


class FrameTooLarge(DecodeError):
    """Frame exceeds the pool slot size."""


class PoolExhausted(DecodeError):
    """No free pool slot; the caller counts a drop."""


class PoolError(Exception):
    """Slot bookkeeping violation (double release, bad index)."""


def parse_ip(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address: {dotted!r}")
    value = 0
    for p in parts:
        b = int(p)
        if not 0 <= b <= 255:
            raise ValueError(f"bad IPv4 address: {dotted!r}")
        value = (value << 8) | b
    return value


def format_ip(value: int) -> str:
    return f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def _coerce_ip(value) -> int:
    return parse_ip(value) if isinstance(value, str) else int(value)


_new = tuple.__new__  # builds a record from fields known to be valid


class _FiveTupleFields(NamedTuple):
    proto: Proto
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int


class FiveTuple(_FiveTupleFields):
    """Protocol plus endpoints; ports are 0 for portless protocols.

    The constructor accepts dotted-quad strings for the addresses and rejects
    ports on a portless protocol; ``decode`` builds from validated ints and
    skips both.
    """

    __slots__ = ()

    def __new__(cls, proto: Proto, src_ip, src_port: int, dst_ip, dst_port: int):
        if proto in (ICMP, OTHER) and (src_port or dst_port):
            raise ValueError("portless protocol with nonzero port")
        return _new(cls, (proto, _coerce_ip(src_ip), src_port, _coerce_ip(dst_ip), dst_port))

    def __str__(self) -> str:
        return (
            f"{self.proto.label} {format_ip(self.src_ip)}:{self.src_port}"
            f" -> {format_ip(self.dst_ip)}:{self.dst_port}"
        )


def canonical_key(tuple_: FiveTuple) -> tuple[FiveTuple, Direction]:
    """Normalize a 5-tuple to its flow key and report the packet's direction.

    The key is ``tuple_`` itself when its source endpoint compares no higher
    than its destination, else the reversed tuple.
    canonical_key(t) == canonical_key(reverse(t)); a tuple whose endpoints are
    equal is defined as FORWARD.
    """
    proto, src_ip, src_port, dst_ip, dst_port = tuple_
    if (src_ip, src_port) <= (dst_ip, dst_port):
        return tuple_, FORWARD
    return _new(FiveTuple, (proto, dst_ip, dst_port, src_ip, src_port)), REVERSE


class PacketDescriptor(NamedTuple):
    """Reference into the packet pool plus decoded header metadata.

    Immutable once built; safe to hand between threads. Only frames that
    decode to an IPv4 5-tuple get one.
    """

    slot: int
    frame_len: int
    arrival_us: int
    tuple: FiveTuple
    payload_offset: int = 0
    payload_len: int = 0
    tcp_flags: int = 0
    tcp_seq: int = 0


class PacketPool:
    """Fixed pool of frame slots backing zero-copy descriptors.

    The pool keeps only the slab, one ownership byte per slot and the free
    list. A stored frame's length lives in its descriptor (``frame_len``),
    so ``frame`` takes it back from the caller. A slot handed out with a
    descriptor is not reused until released. The slab is an anonymous
    memory mapping: its pages read as zero and take physical memory only
    when first written. ``store`` takes the slot released last, else the
    lowest slot never used, so a run touches only its high-water mark of
    slots; never-used slots are a counter, not a list. One thread stores
    (acquisition) and alone advances the counter; any thread may release (in
    real-clock runs the workers release while acquisition stores). No lock
    is taken: released slots go on a ``deque`` whose ``pop`` and ``append``
    are atomic under the interpreter lock, and a slot is marked free before
    it goes back on it, so it is never handed out while still marked in use.
    Slot contents are read-only between store and release.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        self._buf = mmap.mmap(-1, capacity * SLOT_SIZE)
        self._in_use = bytearray(capacity)  # 1 while the slot is handed out
        self._next_unused = 0  # slots below it have been handed out at least once
        self._released: deque[int] = deque()

    def store(self, frame) -> int:
        n = len(frame)
        if n > SLOT_SIZE:
            raise FrameTooLarge(f"frame of {n}B exceeds {SLOT_SIZE}B slot")
        try:
            slot = self._released.pop()
        except IndexError:
            slot = self._next_unused
            if slot == self.capacity:
                raise PoolExhausted("packet pool has no free slot") from None
            self._next_unused = slot + 1
        self._in_use[slot] = 1
        base = slot * SLOT_SIZE
        self._buf[base : base + n] = frame
        return slot

    def release(self, slot: int) -> None:
        if not 0 <= slot < self.capacity or not self._in_use[slot]:
            raise PoolError(f"release of slot {slot} not in use")
        self._in_use[slot] = 0
        self._released.append(slot)

    def frame(self, slot: int, length: int) -> bytes:
        """A copy of the ``length`` bytes stored at ``slot``, the frame's
        descriptor ``frame_len``: one slice of the slab. Any other read is a
        PoolError."""
        if not (0 <= slot < self.capacity and 0 <= length <= SLOT_SIZE) or not self._in_use[slot]:
            raise PoolError(f"read of {length}B at slot {slot}, not a stored frame")
        base = slot * SLOT_SIZE
        return self._buf[base : base + length]

    def raw(self) -> mmap.mmap:
        """The whole pool slab, a writable buffer; slot ``i``'s frame starts
        at ``i * SLOT_SIZE``."""
        return self._buf

    def in_use_count(self) -> int:
        return self._next_unused - len(self._released)


def _decode(frame, arrival_us: int, pool: PacketPool) -> PacketDescriptor:
    """Ingest one raw Ethernet frame: store it in the pool and decode headers.

    The reference for ``decode``'s compiled twin, and ``decode`` itself where
    the extension is absent.

    Sanity checks: IPv4 version, header lengths consistent with the frame,
    transport header fits. Every check runs before the pool is touched, so a
    frame that fails one takes no slot. A later fragment of a datagram
    (non-zero fragment offset) carries no transport header: it decodes as a
    portless OTHER packet whose payload is everything after the IP header.
    Raises UnsupportedL3 for non-IPv4 frames, TruncatedFrame for length
    inconsistencies, PoolExhausted / FrameTooLarge for pool failures.
    """
    flen = len(frame)
    if flen < ETHER_HDR_LEN:
        raise TruncatedFrame(f"{flen}B frame shorter than Ethernet header")
    ethertype = (frame[12] << 8) | frame[13]
    if ethertype != ETHERTYPE_IPV4:
        raise UnsupportedL3(f"ethertype 0x{ethertype:04x} is not IPv4")

    l3 = ETHER_HDR_LEN
    if flen < l3 + 20:
        raise TruncatedFrame("frame too short for IPv4 header")
    ver_ihl, tot_len, frag, proto_num, src_ip, dst_ip = _IPV4_HDR.unpack_from(frame, l3)
    if ver_ihl >> 4 != 4:
        raise UnsupportedL3(f"IP version {ver_ihl >> 4} behind an IPv4 ethertype")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or flen < l3 + ihl:
        raise TruncatedFrame("IPv4 header length inconsistent with frame")
    if tot_len < ihl or tot_len > flen - l3:
        raise TruncatedFrame("IPv4 total length inconsistent with frame")

    l4 = l3 + ihl
    ip_end = l3 + tot_len
    src_port = dst_port = 0
    tcp_flags = 0
    tcp_seq = 0
    if frag & 0x1FFF:  # a non-zero fragment offset: these bytes hold no transport header
        payload_off = l4
        proto = OTHER
    elif proto_num == TCP:
        if ip_end < l4 + 20:
            raise TruncatedFrame("TCP header does not fit")
        src_port, dst_port, tcp_seq, doff, tcp_flags = _TCP_HDR.unpack_from(frame, l4)
        doff = (doff >> 4) * 4
        if doff < 20 or ip_end < l4 + doff:
            raise TruncatedFrame("TCP data offset inconsistent")
        payload_off = l4 + doff
        proto = TCP
    elif proto_num == UDP:
        if ip_end < l4 + 8:
            raise TruncatedFrame("UDP header does not fit")
        src_port, dst_port = _PORTS.unpack_from(frame, l4)
        payload_off = l4 + 8
        proto = UDP
    elif proto_num == ICMP:
        if ip_end < l4 + 8:
            raise TruncatedFrame("ICMP header does not fit")
        payload_off = l4 + 8
        proto = ICMP
    else:
        payload_off = l4
        proto = OTHER

    slot = pool.store(frame)
    return _new(
        PacketDescriptor,
        (
            slot,
            flen,
            arrival_us,
            _new(FiveTuple, (proto, src_ip, src_port, dst_ip, dst_port)),
            payload_off,
            ip_end - payload_off,
            tcp_flags,
            tcp_seq,
        ),
    )


def _bind_decoder(dfa):
    """The compiled twin of ``_decode`` from the extension module ``dfa``,
    bound to this module's records, protocol members and errors."""
    return dfa.decoder(PacketDescriptor, FiveTuple, OTHER, ICMP, TCP, UDP, TruncatedFrame, UnsupportedL3)


decode = _decode if _dfa is None else _bind_decoder(_dfa)
