"""Per-packet analysis: prefilter, full rule evaluation, verdict, alerts.

An analysis worker is a per-packet function over its own flow table and
counters: the scheduler hands it each descriptor together with the time to
analyse it at. Every packet is analysed with its flow: the table bounds
itself by evicting its least recently seen flow and sweeps idle flows on its
own schedule, driven by those times (see ``flow``). The worker decides no
flow state itself: the flow table names a new flow's initiator,
``update_flow`` advances the state and returns the direction's record, and
``stream_seq`` gives the sequence number a segment is reassembled at, one
past a SYN's. A descriptor comes from untrusted memory, so the worker
checks its bounds before it reads the pool (see ``process_packet``). The
compiled ruleset is shared read-only. The only shared
mutable structures a worker touches are the pool's free list and, inline,
the transmit deque that every worker appends allowed descriptors to. Both
are ``collections.deque`` objects, whose ``append`` is thread-safe, so no
worker takes a lock; each entry holds a pool slot, so an append never waits.
Matching is two-phase.
Phase 1 (``prefilter``) scans the packet with its bucket's automaton,
which reports rule sids, and keeps the fast-pattern hits and the
bucket's contentless rules whose header admits the packet: the header is
decided there, once. ``prefilter`` is also the one place that splits payload
from stream: an only-stream rule is a hit when its fast pattern is in the
reassembled stream bytes, any other rule when it is in the payload. Phase 2
(``evaluate_rule``) checks each candidate's flow constraints, then whether
some choice of match positions satisfies its payload options in rule order,
with relative anchoring.

Each analysed packet's payload is copied out of the pool once, as one
``bytes`` slice of the slab; the prefilter, phase 2 and in-order reassembly
all read that object. Reassembly of an in-order segment returns the very
object it was given, so the prefilter knows by identity that the stream is
the payload and scans it once.

The alert line's timestamp text is built once per whole second and its rule
text once per rule, each kept in a bounded cache. What depends only on the
5-tuple is decided once per flow direction, whose tuple is fixed, and kept in
the flow's ``FlowSide`` record, as Suricata keeps a signature group per flow
direction: the worker fills the admitted contentless rules at the direction's
first analysed packet, and the alert endpoint text at its first alert. A
flow of one packet, as a scan or flood brings, so pays one header check, as
it would with no record, and builds no endpoint text unless it alerts. The
record lives and dies with its flow, so the flow table's bound and sweep are
its only bound; it is private to its worker, so no lock guards it.
Enum members are read through ``packet``'s module constants (``TCP``,
``FORWARD``, ...), and the protocol's alert label through a table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .flow import Flow, FlowSide, FlowTable, stream_seq, update_flow
from .packet import (
    FORWARD,
    SLOT_SIZE,
    TCP,
    Direction,
    FiveTuple,
    PacketDescriptor,
    PacketPool,
    Proto,
    canonical_key,
    format_ip,
)
from .rules import ByteTest, CompiledRuleSet, Content, Rule

_DAYS_PER_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
SECOND_TEXT_MEMO_ENTRIES = 1_024  # whole seconds whose alert timestamp text is kept
RULE_TEXT_MEMO_ENTRIES = 4_096  # rules whose alert text is kept

_NO_HITS: frozenset[int] = frozenset()
_new = tuple.__new__  # builds an Alert from fields known to be valid
_PROTO_LABEL = {proto: proto.name for proto in Proto}  # alert-line protocol text
REJECT = "reject"  # the verdict on a descriptor that fails the worker's check


@dataclass(slots=True)
class PacketContext:
    """Everything phase-2 evaluation sees for one packet.

    ``payload`` is the packet's one copy of its payload. ``stream_bytes`` is
    the same object when in-order reassembly delivered exactly the payload,
    which ``prefilter`` tests with ``is``. ``side`` is the flow's record for
    the packet's direction, with its admitted contentless rules filled in; a
    context without one has ``prefilter`` check every header.
    """

    tuple: FiveTuple
    flow: Flow | None = None
    direction: Direction = FORWARD
    payload: bytes = b""
    stream_bytes: bytes | None = None  # newly reassembled, this packet only
    side: FlowSide | None = None


class Alert(NamedTuple):
    sid: int
    rev: int
    msg: str
    classtype: str
    now_us: int
    tuple: FiveTuple
    slot: int
    action_taken: str  # alerted | blocked


@dataclass
class WorkerStats:
    """One worker's counts. Every analysed packet (useless mode aside) has a
    flow: the flow table evicts its least recently seen flow to make room, so
    no packet is analysed without flow context."""

    analyzed: int = 0
    rejected: int = 0  # descriptors that failed the check, dropped unread
    alerts: int = 0
    blocked: int = 0
    candidates_evaluated: int = 0
    analyzed_bytes: int = 0


@lru_cache(maxsize=SECOND_TEXT_MEMO_ENTRIES)
def _second_text(total_s: int) -> str:
    """MM/DD-HH:MM:SS of a whole second after engine start (non-leap calendar)."""
    days, rem = divmod(total_s, 86_400)
    month = 0
    while days >= _DAYS_PER_MONTH[month]:
        days -= _DAYS_PER_MONTH[month]
        month = (month + 1) % 12
    return f"{month + 1:02d}/{days + 1:02d}-{rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}"


@lru_cache(maxsize=RULE_TEXT_MEMO_ENTRIES)
def _rule_text(sid: int, rev: int, msg: str, classtype: str) -> str:
    cls = f" [Classification: {classtype}]" if classtype else ""
    return f"[**] [1:{sid}:{rev}] {msg} [**]{cls}"


def endpoint_text(t: FiveTuple) -> str:
    """The alert line's tail for ``t``: `` {PROTO} a:p -> b:q``."""
    return f" {{{_PROTO_LABEL[t.proto]}}} {format_ip(t.src_ip)}:{t.src_port} -> {format_ip(t.dst_ip)}:{t.dst_port}"


def format_alert_fast(alert: Alert, endpoints: str | None = None) -> str:
    """One `fast` output line, bit-exact field layout:
    ``MM/DD-HH:MM:SS.UUUUUU [**] [1:sid:rev] msg [**] [Classification: c] {PROTO} a:p -> b:q``.
    ``endpoints`` is ``endpoint_text(alert.tuple)`` when the caller has it."""
    total_s, us = divmod(alert.now_us, 1_000_000)
    rule_text = _rule_text(alert.sid, alert.rev, alert.msg, alert.classtype)
    if endpoints is None:
        endpoints = endpoint_text(alert.tuple)
    return f"{_second_text(total_s)}.{us:06d} {rule_text}{endpoints}"


def _flow_matches(rule: Rule, ctx: PacketContext) -> bool:
    fo = rule.flow
    if fo is None:
        return True
    if fo.established or fo.to_client or fo.to_server:
        flow = ctx.flow
        if flow is None:
            return False
        if fo.established and not flow.saw_established:
            return False
        to_server = flow.is_to_server(ctx.direction)
        if fo.to_server and not to_server:
            return False
        if fo.to_client and to_server:
            return False
    if fo.only_stream and ctx.stream_bytes is None:
        return False
    return True


def evaluate_rule(rule: Rule, ctx: PacketContext) -> bool:
    """Phase 2 for one candidate: flow constraints, then payload options.

    The header is not looked at: ``prefilter`` admitted the rule only for a
    packet its header matches. Stream-only rules evaluate against the newly
    reassembled bytes; everything else evaluates against the packet payload.

    The rule matches when some choice of match positions satisfies every
    payload option in rule order, as in Snort. Content offsets/depths are
    measured from the anchor (buffer start, or end of the previous content
    match for relative options); a match must fit entirely within the depth
    window. A byte test reads at its offset from the same anchor.

    Each content is tried at its first occurrence first, so a rule whose
    first choices match, or one without relative options, costs one search
    per content. When a later option reads where a content matched
    (``Rule.retried``) and the rest of the rule fails, that content is
    retried at its next occurrence, depth first, so a decoy copy of a rule's
    first content cannot hide the real match. The search is memoised on
    (option index, anchor), the fix Smith, Estan & Jha give for Snort's own
    backtracking ("Backtracking Algorithmic Complexity Attacks Against a
    NIDS", ACSAC 2006). Anchors reach each option in non-decreasing order, so
    that memo is one frontier per content: the end of its last window whose
    every occurrence failed. No occurrence is tried twice, retrying stops
    once the next content's frontier is the buffer's end, and the search
    costs at most about two ``find`` calls per option per buffer byte.
    """
    if not _flow_matches(rule, ctx):
        return False

    if not rule.options:  # contentless: no search to call, no memo to build
        return True
    buf = ctx.stream_bytes if rule.only_stream else ctx.payload  # _flow_matches saw a stream
    return _options_match(rule, buf, 0, None, {})


def _options_match(rule: Rule, buf: bytes, first: int, anchor: int | None, frontier: dict) -> bool:
    """Whether ``rule.options[first:]`` match ``buf``, the previous content
    match ending at ``anchor`` (None: no content matched yet). A retried
    content is tried at each occurrence in turn; ``frontier`` maps a
    content's index to the end of its last window whose every occurrence
    failed."""
    end = len(buf)
    options = rule.options
    retried = rule.retried
    for i in range(first, len(options)):
        opt = options[i]
        origin = anchor if (opt.relative and anchor is not None) else 0
        if isinstance(opt, ByteTest):
            pos = origin + opt.offset
            if pos < 0 or pos + opt.nbytes > end:
                return False
            value = int.from_bytes(buf[pos : pos + opt.nbytes], "big")
            if opt.op == ">" and not value > opt.value:
                return False
            if opt.op == "<" and not value < opt.value:
                return False
            if opt.op == "=" and value != opt.value:
                return False
            continue
        start = origin + opt.offset
        window_end = end if opt.depth is None else min(end, start + opt.depth)
        if start < 0:
            return False
        pattern = opt.pattern
        if not retried[i]:
            pos = buf.find(pattern, start, window_end)
            if pos < 0:
                frontier[i] = window_end
                return False
            anchor = pos + len(pattern)
            continue
        # occurrences that end by the last failed window's end have failed
        pos = buf.find(pattern, max(start, frontier.get(i, 0) - len(pattern) + 1), window_end)
        while pos >= 0:
            if _options_match(rule, buf, i + 1, pos + len(pattern), frontier):
                return True
            if frontier.get(i + 1, -1) == end:  # the next content fails at every later anchor
                break
            pos = buf.find(pattern, pos + 1, window_end)
        frontier[i] = window_end
        return False
    return True


def prefilter(compiled: CompiledRuleSet, ctx: PacketContext) -> set[int] | tuple[int, ...]:
    """Phase 1: the rules whose fast pattern occurs in their buffer, plus the
    contentless rules, each kept only when its header admits the packet
    (``CompiledRuleSet.admitted``). The buffer of an only-stream rule
    (``compiled.stream_rules``) is the stream bytes, and of any other rule
    the payload. When nothing hits and the context has its direction's
    record, the result is the record's sorted tuple of admitted contentless
    sids, returned as it is; otherwise it is a new set.

    The protocol's automaton covers every rule of that protocol, so the
    payload is scanned once. When the stream bytes are the payload object
    itself (in-order reassembly delivers the payload as it came), that one
    scan serves both. Otherwise the payload scan's only-stream hits are
    dropped, and the stream bytes, if any, are scanned for only-stream hits.
    """
    t = ctx.tuple
    proto = t.proto
    payload = ctx.payload
    stream = ctx.stream_bytes
    hits = compiled.scan_payload(proto, payload) if payload else _NO_HITS
    stream_rules = compiled.stream_rules
    if stream is not payload and stream_rules:
        hits = hits - stream_rules
        if stream:
            hits |= compiled.scan_payload(proto, stream) & stream_rules
    side = ctx.side
    if hits or side is None:
        return compiled.admitted(t, hits)
    return side.candidates


class AnalysisWorker:
    """One detection worker: analyzes each descriptor it is given, allows or
    blocks. Given a ``tx_ring`` deque it is inline: blocking rules drop,
    allowed packets are appended to it; without one it is passive and
    releases every slot. Workers may share one ``tx_ring`` without a lock.
    Each worker builds its own ``flow_table`` and ``stats``."""

    def __init__(
        self,
        pool: PacketPool,
        compiled: CompiledRuleSet,
        tx_ring: deque | None = None,
        alert_sink=None,
        useless_mode: bool = False,
    ):
        self.pool = pool
        self.compiled = compiled
        self.flow_table = FlowTable()
        self.tx_ring = tx_ring
        self.alert_sink = alert_sink
        self.useless_mode = useless_mode
        self.stats = WorkerStats()
        self._buf = pool.raw()
        self._slots = pool.capacity

    def _finish(self, desc: PacketDescriptor, verdict: str) -> None:
        if verdict == "allow" and self.tx_ring is not None:
            self.tx_ring.append(desc)
        else:
            self.pool.release(desc.slot)

    def process_packet(self, desc: PacketDescriptor, now_us: int) -> tuple[str, list[Alert]]:
        """Analyze one dequeued descriptor at time ``now_us``; returns
        (verdict, alerts). Flow state and alert timestamps use ``now_us``.

        The descriptor comes from untrusted memory, so it is checked before
        any field is used, in two stages. Stage one, on every descriptor:
        ``0 <= slot < pool.capacity`` and ``0 <= frame_len <= SLOT_SIZE``,
        before useless mode returns, because that releases or forwards the
        slot. Stage two, on the analysis path only: ``0 <= payload_offset``,
        ``0 <= payload_len``, ``payload_offset + payload_len <= frame_len``,
        and ``proto`` is a ``Proto`` member. These bounds are the security
        check: they keep every read inside the descriptor's own slot. The
        pool's ownership byte sits in untrusted memory too, so checking it
        would catch only a buggy acquirer, and it is not checked. A
        descriptor that fails counts in ``stats.rejected`` and gets the
        verdict ``REJECT``. One that fails stage one names no slot the
        worker can trust: it never raises and never touches the pool. One
        that fails stage two names a slot inside the pool, and the worker
        releases it as it releases any dropped packet's, so the pool keeps
        its size and the shutdown check that every slot came home holds."""
        stats = self.stats
        frame_len = desc.frame_len
        if not (0 <= desc.slot < self._slots and 0 <= frame_len <= SLOT_SIZE):
            stats.rejected += 1
            return REJECT, []
        if self.useless_mode:
            stats.analyzed += 1
            stats.analyzed_bytes += frame_len
            self._finish(desc, "allow")
            return "allow", []

        t = desc.tuple
        offset = desc.payload_offset
        if not 0 <= offset <= offset + desc.payload_len <= frame_len or t.proto.__class__ is not Proto:
            stats.rejected += 1
            self._finish(desc, REJECT)
            return REJECT, []
        stats.analyzed += 1
        stats.analyzed_bytes += frame_len
        key, direction = canonical_key(t)
        flow = self.flow_table.lookup_or_create(key, direction, now_us, desc.tcp_flags)
        side = update_flow(flow, desc, direction)
        base = desc.slot * SLOT_SIZE + offset
        payload = self._buf[base : base + desc.payload_len]  # the packet's one payload copy
        stream = None
        if payload and t.proto is TCP:
            stream = self.flow_table.reassemble(side, stream_seq(desc), payload) or None
        compiled = self.compiled
        if side.candidates is None:  # the direction's first packet: its tuple is fixed from here on
            side.candidates = tuple(sorted(compiled.admitted(t, ())))
        ctx = PacketContext(t, flow, direction, payload, stream, side)

        candidates = prefilter(compiled, ctx)
        if not candidates:
            self._finish(desc, "allow")
            return "allow", []
        stats.candidates_evaluated += len(candidates)
        rules = compiled.rules
        matched: list[Rule] = []
        # the record's tuple comes sorted; a loop, not a comprehension: no closure cells on every call
        for sid in candidates if candidates.__class__ is tuple else sorted(candidates):
            rule = rules[sid]
            if evaluate_rule(rule, ctx):
                matched.append(rule)

        blocked = self.tx_ring is not None and any(r.blocks_in_inline for r in matched)
        verdict = "block" if blocked else "allow"
        action = "blocked" if blocked else "alerted"
        sink = self.alert_sink
        if matched and sink is not None and side.endpoints is None:
            side.endpoints = endpoint_text(t)
        alerts = []
        for rule in matched:
            alert = _new(Alert, (rule.sid, rule.rev, rule.msg, rule.classtype, now_us, t, desc.slot, action))
            if sink is not None:
                sink.emit(alert, format_alert_fast(alert, side.endpoints))
            alerts.append(alert)
        stats.alerts += len(alerts)
        if blocked:
            stats.blocked += 1
        self._finish(desc, verdict)
        return verdict, alerts
