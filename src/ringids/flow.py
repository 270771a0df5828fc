"""Per-worker connection tracking and TCP stream reassembly.

Each analysis worker owns a private FlowTable; nothing here is shared or
locked. Flow state follows New -> SynSeen -> Established -> Closing ->
Closed, with a New -> Established fallback when data is seen in both
directions without an observed handshake (replayed captures often start
mid-connection). Reassembly resolves overlaps first-arrival-wins and is
capped per direction; the per-flow memory footprint is tracked so the
boundary cost model can price the table against the protected-memory budget.
A direction buffers out-of-order bytes as one run per contiguous span: its
runs are sorted and never overlap or touch, so an insert reads only the runs
it merges, however the sender has cut the stream.

A FlowTable keeps its flows in last-seen order, least recently seen first,
and bounds itself. A lookup stamps the flow's last-seen time and moves it to
the newest end; a new flow on a full table evicts the least recently seen
one, as Snort's stream preprocessor prunes its oldest sessions. The price of
the bound is that a sender who creates ``max_flows`` new 5-tuples between two
packets of a connection evicts that connection's state, and its later
packets start a new flow. Idle flows are swept on the table's own schedule:
the first lookup whose time reaches the next multiple of ``SWEEP_US`` first
expires every flow idle past its protocol's timeout. The sweep walks from the
oldest end and stops at the first flow idle no longer than the shorter
timeout, which finds every idle flow only because a table is handed times
that never decrease; each worker's scheduler guarantees that, and the
table's callers must too.

This module alone decides flow state. ``FlowTable.lookup_or_create`` takes
the direction of a new flow's first packet as the initiator's, and a SYN
seen while the flow is new names its sender instead. A FIN or RST counts
only at a sequence number its sender could send, so that an off-path
sender, who does not know the connection's sequence numbers, cannot tear it
down (Ptacek & Newsham's TCB teardown): a RST exactly at the direction's
``delivered_upto``, the next byte the detector expects from it (RFC 5961
3.2), or one past it once the direction has sent its FIN, which takes a
sequence number; and a FIN no more than ``REASSEMBLY_CAP_BYTES`` past it.
An endpoint of the connection knows both directions' numbers, so the checks
do not stop it. A direction with no anchor yet accepts either, and a
rejected FIN or RST changes no state. FIN from both directions
closes the flow, and an accepted RST closes it at once, since a reset ends
both directions (RFC 9293 3.10.7.4). A SYN on a CLOSED flow opens a new
connection on the same 5-tuple, so the table replaces the closed flow with a
new one; a closed flow that sees no new SYN stays until its idle timeout.
``update_flow`` runs the state machine and returns the packet's direction
record. A SYN takes one sequence number, so ``stream_seq`` places
a segment's first stream byte one past a SYN's sequence number;
``update_flow`` anchors a direction's stream there at its first SYN, and the
worker hands ``FlowTable.reassemble`` the same position.

A flow keeps one ``FlowSide`` record per direction (``Flow.fwd`` and
``Flow.rev``), which ``update_flow`` makes at the direction's first packet:
a flow seen one way only, as most scan and flood flows are, never allocates
the other, and "traffic in both directions" is "both records exist". The
record holds all of a direction's state: its ``SegmentBuffer``, whether it
sent an accepted FIN (the flow closes once both directions have), and what
detection decides once for the direction's 5-tuple, which is fixed while the
flow lives: the contentless rules whose header admits it, filled by the analysis
worker at the direction's first packet, and the alert line's endpoint text,
filled at its first alert. So the headers are checked once per direction, not
once per packet, as Suricata keeps a signature group per flow direction.
``Flow`` itself holds only what belongs to both directions. The record lives
and dies with its flow, so the table's bound and sweep bound it too, and
``FLOW_BASE_BYTES`` covers its fixed part. It is the place for the rest of a
direction's detection state: the automaton state and bounded tail that let a
pattern span segments, the count of overlaps whose bytes conflict, and
flowbits.

Like ``packet``, this module reads enum members through module constants
(``NEW``, ``ESTABLISHED``, ``TCP``, ``FORWARD``, ...), not through their
class: every packet runs the state machine, and a class attribute read on an
enum takes the metaclass's slow lookup.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .packet import (
    FORWARD,
    TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    Direction,
    FiveTuple,
    PacketDescriptor,
)

FLOW_BASE_BYTES = 4096  # fixed per-flow cost, upper end of the 2-4KB range
REASSEMBLY_CAP_BYTES = 64 * 1024  # pending bytes per direction
TCP_TIMEOUT_US = 30_000_000
UDP_TIMEOUT_US = 10_000_000  # non-TCP flows; the shorter timeout, where a sweep stops
SWEEP_US = 3_000_000  # a table sweeps idle flows once per this much packet time
SEQ_MASK = 0xFFFF_FFFF  # TCP sequence numbers are 32-bit serial numbers
SEQ_HALF = 1 << 31
_START = itemgetter(0)  # a buffered run's stream position


class FlowState(Enum):
    NEW = "new"
    SYN_SEEN = "syn_seen"
    ESTABLISHED = "established"
    CLOSING = "closing"
    CLOSED = "closed"


# read on the per-packet path instead of ``FlowState.NEW`` and the like
NEW, SYN_SEEN, ESTABLISHED, CLOSING, CLOSED = (
    FlowState.NEW,
    FlowState.SYN_SEEN,
    FlowState.ESTABLISHED,
    FlowState.CLOSING,
    FlowState.CLOSED,
)


class SegmentBuffer:
    """Out-of-order segment store for one direction of a TCP stream.

    Buffered bytes are kept as one list of ``(start, bytearray)`` runs with
    one invariant: the runs are sorted, non-empty, and never overlap or
    touch, so each contiguous span is one run. An insert finds the runs the
    segment overlaps or touches with two bisections, extends the first of
    them in place (or starts a new run), fills only the gaps between them
    from the segment (first arrival wins) and splices the merged run back. It
    reads only the runs it merges, so a retransmission over many filled holes
    costs what one over a single run does. A run that starts at
    ``delivered_upto`` is the whole contiguous delivery. An in-order segment
    that finds nothing buffered is delivered as it came.

    ``delivered_upto`` is None until a SYN (``update_flow``) or the first
    segment anchors the stream. It and the buffered starts are stream
    positions, which keep counting past 2**32. Each 32-bit sequence number is
    unwrapped with RFC 1982 serial arithmetic to the position nearest
    ``delivered_upto``, so a stream reassembles across a sequence wrap.
    """

    def __init__(self, delivered_upto: int | None = None):
        self.delivered_upto = delivered_upto
        self._pieces: list[tuple[int, bytearray]] = []  # (start, run), sorted; runs never overlap or touch
        self.pending_bytes = 0

    def insert(self, seq: int, payload) -> bytes:
        """Add one segment; returns newly contiguous stream bytes (may be empty)."""
        upto = self.delivered_upto
        if upto is None:  # the first segment anchors the stream
            upto = seq
        if not self._pieces and (seq - upto) & SEQ_MASK == 0:
            # in order with nothing buffered: the segment is the delivery
            payload = bytes(payload)
            self.delivered_upto = upto + len(payload)
            return payload
        return self._insert_buffered(upto + ((seq - upto + SEQ_HALF) & SEQ_MASK) - SEQ_HALF, payload)

    def _insert_buffered(self, seq: int, payload) -> bytes:
        """General insert at stream position ``seq``: merge the segment with
        the runs it overlaps or touches into one run, taking from it only the
        bytes no run holds (first arrival wins), then deliver."""
        upto = self.delivered_upto
        end = seq + len(payload)
        if end <= upto or end == seq:  # nothing new; an empty payload adds no run
            return b""
        if seq < upto:
            payload = payload[upto - seq :]
            seq = upto
        runs = self._pieces
        after = bisect_right(runs, seq, key=_START)  # runs from here on start past seq,
        hi = bisect_right(runs, end, key=_START)  # and up to here no later than end
        lo = after
        if after and runs[after - 1][0] + len(runs[after - 1][1]) >= seq:
            lo -= 1  # the run before reaches seq: extend it in place
            start, merged = runs[lo]
        else:
            start, merged = seq, bytearray()
        old = len(merged)  # bytes already buffered in the merged span
        pos = start + old
        for s0, data in runs[after:hi]:  # fill the gap before each run from the segment
            merged += payload[pos - seq : s0 - seq]
            merged += data
            old += len(data)
            pos = s0 + len(data)
        if end > pos:
            merged += payload[pos - seq :]
        runs[lo:hi] = [(start, merged)]
        self.pending_bytes += len(merged) - old
        return self._deliver()

    def _deliver(self) -> bytes:
        runs = self._pieces
        if not runs or runs[0][0] != self.delivered_upto:
            return b""
        run = runs.pop(0)[1]
        self.delivered_upto += len(run)
        self.pending_bytes -= len(run)
        return bytes(run)

    def flush_oldest_gap(self) -> bytes:
        """Give up on the oldest missing span and deliver what follows."""
        if not self._pieces:
            return b""
        self.delivered_upto = self._pieces[0][0]
        return self._deliver()


@dataclass(slots=True)
class FlowSide:
    """One direction of a flow: its reassembly buffer, whether it sent an
    accepted FIN, and what detection decides once for the direction's fixed
    5-tuple (see the module docstring)."""

    buf: SegmentBuffer = field(default_factory=SegmentBuffer)
    fin: bool = False  # the direction sent an accepted FIN
    candidates: tuple[int, ...] | None = None  # admitted contentless sids, sorted
    endpoints: str | None = None  # alert-line endpoint text, set at the first alert


@dataclass
class Flow:
    key: FiveTuple  # canonical, see packet.canonical_key
    last_seen_us: int
    state: FlowState = NEW
    initiator_direction: Direction = FORWARD  # side that sent the first packet, or the first SYN
    saw_established: bool = False
    bad_flag_events: int = 0
    fwd: FlowSide | None = None  # made at the direction's first packet
    rev: FlowSide | None = None

    @property
    def footprint_bytes(self) -> int:
        total = FLOW_BASE_BYTES
        for side in (self.fwd, self.rev):
            if side is not None:
                total += side.buf.pending_bytes
        return total

    def side(self, direction: Direction) -> FlowSide:
        """The record of ``direction``, made at its first use."""
        if direction is FORWARD:
            if self.fwd is None:
                self.fwd = FlowSide()
            return self.fwd
        if self.rev is None:
            self.rev = FlowSide()
        return self.rev

    def is_to_server(self, direction: Direction) -> bool:
        """True when a packet in ``direction`` travels initiator -> responder."""
        return direction is self.initiator_direction


def stream_seq(desc: PacketDescriptor) -> int:
    """The sequence number of the segment's first stream byte: a SYN takes
    one sequence number, so the data it carries starts one past it."""
    return desc.tcp_seq + 1 if desc.tcp_flags & TCP_SYN else desc.tcp_seq


def update_flow(flow: Flow, desc: PacketDescriptor, direction: Direction) -> FlowSide:
    """Advance the state machine and return the record of the packet's
    direction, made at the direction's first packet. A direction's first SYN
    anchors its stream (``stream_seq``). The flow's last-seen time is the
    table's to keep, in step with its order (``FlowTable.lookup_or_create``)."""
    side = flow.side(direction)
    if flow.key.proto is TCP:
        flags = desc.tcp_flags
        if flags & TCP_SYN and flags & TCP_FIN:
            flow.bad_flag_events += 1  # nonsensical combination; state unchanged
            return side
        if flags & TCP_SYN and side.buf.delivered_upto is None:
            side.buf.delivered_upto = stream_seq(desc)
        _advance_tcp(flow, side, flags, desc.tcp_seq, direction)
    elif flow.state is NEW and flow.fwd is not None and flow.rev is not None:
        # connectionless: bidirectional traffic means established
        flow.state = ESTABLISHED
        flow.saw_established = True
    return side


def _advance_tcp(flow: Flow, side: FlowSide, flags: int, seq: int, direction: Direction) -> None:
    state = flow.state
    if flags & TCP_SYN and not flags & TCP_ACK:
        if state is NEW:
            flow.state = SYN_SEEN
            flow.initiator_direction = direction
        return
    if flags & TCP_SYN and flags & TCP_ACK:
        return  # handshake reply; established on the final ACK
    if flags & (TCP_FIN | TCP_RST):
        upto = side.buf.delivered_upto  # None: no anchor, so any sequence number is accepted
        if flags & TCP_RST:
            if upto is not None and (seq - upto - side.fin) & SEQ_MASK:
                return  # only at the next expected sequence number, past a FIN (RFC 5961 3.2)
            flow.state = CLOSED  # a reset ends both directions (RFC 9293 3.10.7.4)
            return
        if upto is not None and (seq - upto) & SEQ_MASK > REASSEMBLY_CAP_BYTES:
            return  # outside the sender's window
        side.fin = True
        if state is ESTABLISHED or state is SYN_SEEN or state is NEW:
            flow.state = CLOSING
        other = flow.rev if direction is FORWARD else flow.fwd
        if other is not None and other.fin and flow.state is CLOSING:
            flow.state = CLOSED
        return
    if state is SYN_SEEN and flags & TCP_ACK:
        flow.state = ESTABLISHED
        flow.saw_established = True
        return
    if state is NEW and flow.fwd is not None and flow.rev is not None:
        # no handshake observed but traffic in both directions
        flow.state = ESTABLISHED
        flow.saw_established = True


class FlowTable:
    """Private per-worker flow store with footprint accounting, in last-seen
    order and bounded to ``max_flows`` flows (see the module docstring).

    Every time it is handed must be no earlier than the last one. In a sim
    run that time is the worker's schedule time, so a sweep runs at the first
    packet a worker analyses in each new 3 s report interval; on the real
    clock it is the counter clock that stamps the flows, not the wall clock
    that cuts the report intervals.
    """

    def __init__(self, max_flows: int = 262_144, reassembly_cap: int = REASSEMBLY_CAP_BYTES):
        if max_flows < 1:
            raise ValueError(f"max_flows must be >= 1, got {max_flows}: an empty table has nothing to evict")
        self.max_flows = max_flows
        self.reassembly_cap = reassembly_cap
        self._flows: OrderedDict[FiveTuple, Flow] = OrderedDict()  # least recently seen first
        self._next_sweep_us = SWEEP_US
        self.footprint_bytes = 0
        self.created_total = 0
        self.evicted_total = 0
        self.buffer_limit_events = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self):
        return iter(self._flows.values())

    def lookup_or_create(self, key: FiveTuple, direction: Direction, now_us: int, flags: int = 0) -> Flow:
        """The flow of ``key``, seen at ``now_us`` and moved to the newest
        end. A new flow takes ``direction``, its first packet's, as the
        initiator's, and on a full table evicts the least recently seen flow.
        A SYN without ACK or FIN (``flags``, the packet's TCP flags) on a
        CLOSED flow opens a new connection on the tuple: the closed flow is
        evicted and a new one made. The first call in a new ``SWEEP_US`` period expires
        idle flows before the lookup."""
        if now_us >= self._next_sweep_us:
            self._next_sweep_us = (now_us // SWEEP_US + 1) * SWEEP_US
            self.expire_flows(now_us)
        flow = self._flows.get(key)
        if flow is not None:
            if flow.state is not CLOSED or flags & (TCP_SYN | TCP_ACK | TCP_FIN) != TCP_SYN:
                self._flows.move_to_end(key)
                flow.last_seen_us = now_us
                return flow
            del self._flows[key]  # a new connection reuses the closed one's tuple
            self.footprint_bytes -= flow.footprint_bytes
            self.evicted_total += 1
        if len(self._flows) >= self.max_flows:
            self.footprint_bytes -= self._flows.popitem(last=False)[1].footprint_bytes
            self.evicted_total += 1
        flow = self._flows[key] = Flow(key=key, last_seen_us=now_us, initiator_direction=direction)
        self.footprint_bytes += flow.footprint_bytes
        self.created_total += 1
        return flow

    def reassemble(self, side: FlowSide, seq: int, payload) -> bytes:
        """Insert a TCP segment into a flow's ``side`` at sequence number
        ``seq`` (``stream_seq``), keeping the footprint counter in step. Gaps
        are flushed, oldest first, until the pending bytes are under the cap,
        each flush counted in ``buffer_limit_events``."""
        buf = side.buf
        before = buf.pending_bytes
        delivered = buf.insert(seq, payload)
        while buf.pending_bytes > self.reassembly_cap:
            self.buffer_limit_events += 1
            delivered += buf.flush_oldest_gap()
        self.footprint_bytes += buf.pending_bytes - before
        return delivered

    def expire_flows(self, now_us: int) -> list[Flow]:
        """Evict flows idle longer than their protocol's timeout, oldest first.

        The walk starts at the oldest end and stops at the first flow idle no
        longer than the non-TCP timeout, the shorter one: every flow after it
        was seen no earlier, so none of them has timed out either. That holds
        when no time handed to the table is earlier than one before it. TCP
        flows idle between the two timeouts are walked past, not evicted.
        """
        evicted = []
        for flow in self._flows.values():
            idle = now_us - flow.last_seen_us
            if idle <= UDP_TIMEOUT_US:
                break
            if idle > TCP_TIMEOUT_US or flow.key.proto is not TCP:
                evicted.append(flow)
        for flow in evicted:
            del self._flows[flow.key]
            self.footprint_bytes -= flow.footprint_bytes
        self.evicted_total += len(evicted)
        return evicted
