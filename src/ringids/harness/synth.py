"""Synthetic workload generation and frame-building helpers.

Workloads are TCP/IPv4 streams over a configurable number of bidirectional
flows: each flow opens with a SYN / SYN-ACK / ACK triple, then fixed-size
data frames with pseudorandom payloads cycle across flows, alternating
direction. Generation is fully determined by the seed. An optional attack
injection replaces selected data payloads with bytes crafted to satisfy a
target rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice

from ..packet import TCP_ACK, TCP_SYN, Proto
from ..ring import ConfigError
from ..rules import ByteTest, Content, Rule, RuleSet

ETH_IP_TCP_HDR = 54  # 14 + 20 + 20
MIN_FRAME = 64
MAX_FRAME = 1518


@dataclass
class WorkloadSpec:
    kind: str = "synth"  # synth | pcap
    packet_size: int = 64
    n_flows: int = 256
    pcap_path: str | None = None
    repeat: bool = False
    duration_s: float | None = None
    packet_count: int | None = None
    seed: int = 1
    attack_sid: int | None = None
    attack_rate: float = 0.0

    def __post_init__(self):
        if self.kind == "synth":
            if not MIN_FRAME <= self.packet_size <= MAX_FRAME:
                raise ConfigError(f"packet_size must be in [{MIN_FRAME}, {MAX_FRAME}]")
            if self.n_flows < 1:
                raise ConfigError("n_flows must be >= 1")
        if not 0.0 <= self.attack_rate <= 1.0:
            raise ConfigError("attack_rate must be a fraction in [0, 1]")
        if self.attack_rate > 0 and self.attack_sid is None:
            raise ConfigError("attack_rate needs attack_sid, the rule whose payload is injected")
        if self.kind == "pcap" and (self.attack_sid is not None or self.attack_rate > 0):
            raise ConfigError("attack injection needs a synth workload; a capture is replayed as it is")
        if self.packet_count is not None and self.packet_count < 0:
            raise ConfigError(f"packet_count must be >= 0, got {self.packet_count}")
        if self.duration_s is not None and not self.duration_s > 0:
            raise ConfigError(f"duration_s must be > 0, got {self.duration_s}")


def build_ipv4_frame(src_ip: int, dst_ip: int, proto: int, l4: bytes, pad_to: int = 0) -> bytes:
    """Hand-rolled Ethernet+IPv4 frame around the L4 bytes (header and
    payload); zero-padded to pad_to if larger."""
    frame = bytearray()
    frame += b"\x02\x00\x00\x00\x00\x02"  # dst mac
    frame += b"\x02\x00\x00\x00\x00\x01"  # src mac
    frame += b"\x08\x00"
    frame += bytes([0x45, 0x00])
    frame += (20 + len(l4)).to_bytes(2, "big")
    frame += bytes([0x00, 0x00, 0x40, 0x00, 0x40, proto, 0x00, 0x00])  # id, DF, ttl 64, proto, csum 0
    frame += src_ip.to_bytes(4, "big")
    frame += dst_ip.to_bytes(4, "big")
    frame += l4
    if len(frame) < pad_to:
        frame += bytes(pad_to - len(frame))
    return bytes(frame)


def build_ipv4_tcp_frame(
    src_ip: int,
    src_port: int,
    dst_ip: int,
    dst_port: int,
    flags: int,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
    pad_to: int = 0,
) -> bytes:
    tcp = (
        src_port.to_bytes(2, "big")
        + dst_port.to_bytes(2, "big")
        + (seq & 0xFFFFFFFF).to_bytes(4, "big")
        + (ack & 0xFFFFFFFF).to_bytes(4, "big")
        + bytes([0x50, flags])  # data offset 5, flags
        + b"\xff\xff\x00\x00\x00\x00"  # window, csum 0, urg 0
    )
    return build_ipv4_frame(src_ip, dst_ip, Proto.TCP, tcp + payload, pad_to)


def craft_payload(rule: Rule) -> bytes:
    """Bytes satisfying the rule's content and byte_test chain.

    Patterns are laid down at their minimal legal positions; byte_test fields
    are written with a value satisfying the comparison. Raises ConfigError
    for constraints that cannot be satisfied (e.g. depth shorter than the
    pattern).
    """
    buf = bytearray()
    anchor = 0

    def ensure(n: int) -> None:
        while len(buf) < n:
            buf.append(0x2E)

    for opt in rule.options:
        base = anchor if opt.relative else 0
        if isinstance(opt, Content):
            if opt.depth is not None and opt.depth < len(opt.pattern):
                raise ConfigError(f"rule {rule.sid}: depth shorter than pattern")
            start = base + opt.offset
            ensure(start + len(opt.pattern))
            buf[start : start + len(opt.pattern)] = opt.pattern
            anchor = start + len(opt.pattern)
        elif isinstance(opt, ByteTest):
            limit = (1 << (8 * opt.nbytes)) - 1
            if opt.op == ">":
                value = opt.value + 1
            elif opt.op == "<":
                value = opt.value - 1
            else:
                value = opt.value
            if not 0 <= value <= limit:
                raise ConfigError(f"rule {rule.sid}: byte_test value {value} out of range")
            pos = base + opt.offset
            ensure(pos + opt.nbytes)
            buf[pos : pos + opt.nbytes] = value.to_bytes(opt.nbytes, "big")
    if not buf:
        raise ConfigError(f"rule {rule.sid} has no payload constraints to satisfy")
    return bytes(buf)


@dataclass
class _SynthFlow:
    client_ip: int
    client_port: int
    server_ip: int
    server_port: int
    client_seq: int = 1
    server_seq: int = 1
    next_from_client: bool = True


def _make_flows(n_flows: int, server_port: int = 443) -> list[_SynthFlow]:
    flows = []
    for i in range(n_flows):
        flows.append(
            _SynthFlow(
                client_ip=(10 << 24) | (i & 0xFFFFFF),
                client_port=1024 + (i * 7 + 1) % 60000,
                server_ip=(192 << 24) | (168 << 16) | (((i >> 8) & 0xFF) << 8) | (i & 0xFF),
                server_port=server_port,
            )
        )
    return flows


def gen_synth(spec: WorkloadSpec, ruleset: RuleSet | None = None):
    """Yield the deterministic frame stream described by ``spec``.

    The first 3 * n_flows frames are the handshakes (all SYNs, then all
    SYN-ACKs, then all ACKs); after that, data frames of exactly packet_size
    bytes cycle over the flows, alternating direction. With attack injection,
    exactly ceil(attack_rate * packet_count) data frames carry the crafted
    payload for the target rule (a frame grows past packet_size only if the
    crafted payload does not fit).
    """
    if spec.kind != "synth":
        raise ConfigError("gen_synth needs a synth workload")
    rng = random.Random(spec.seed)
    flows = _make_flows(spec.n_flows)
    payload_len = max(spec.packet_size - ETH_IP_TCP_HDR, 0)

    attack_payload = None
    attack_to_client = False
    inject_at: set[int] = set()
    inject_period = 0
    if spec.attack_sid is not None and spec.attack_rate > 0:
        if ruleset is None:
            raise ConfigError("attack injection needs the ruleset to craft payloads")
        target = next((r for r in ruleset.rules if r.sid == spec.attack_sid), None)
        if target is None:
            raise ConfigError(f"attack sid {spec.attack_sid} not in ruleset")
        attack_payload = craft_payload(target)
        attack_to_client = bool(target.flow and target.flow.to_client)
        handshakes = 3 * spec.n_flows
        if spec.packet_count is not None:
            n_inject = math.ceil(spec.attack_rate * spec.packet_count)
            data_slots = spec.packet_count - handshakes
            if data_slots < n_inject:
                raise ConfigError("not enough data frames to carry the requested attack rate")
            inject_at = {handshakes + (k * data_slots) // n_inject for k in range(n_inject)}
        else:
            inject_period = max(int(round(1.0 / spec.attack_rate)), 1)

    emitted = 0
    budget = spec.packet_count

    def shake_frames():
        for flow in flows:
            yield build_ipv4_tcp_frame(
                flow.client_ip, flow.client_port, flow.server_ip, flow.server_port,
                TCP_SYN, seq=0, pad_to=spec.packet_size,
            )
        for flow in flows:
            yield build_ipv4_tcp_frame(
                flow.server_ip, flow.server_port, flow.client_ip, flow.client_port,
                TCP_SYN | TCP_ACK, seq=0, ack=1, pad_to=spec.packet_size,
            )
        for flow in flows:
            yield build_ipv4_tcp_frame(
                flow.client_ip, flow.client_port, flow.server_ip, flow.server_port,
                TCP_ACK, seq=1, ack=1, pad_to=spec.packet_size,
            )

    for frame in shake_frames():
        if budget is not None and emitted >= budget:
            return
        yield frame
        emitted += 1
    if budget is not None and emitted >= budget:
        return

    data_emitted = 0
    while True:
        flow = flows[data_emitted % len(flows)]
        inject = (emitted in inject_at) or (inject_period and data_emitted % inject_period == 0)
        if inject and attack_payload is not None:
            payload = attack_payload
            if len(payload) < payload_len:
                payload += rng.randbytes(payload_len - len(payload))
            from_client = not attack_to_client
        else:
            payload = rng.randbytes(payload_len)
            from_client = flow.next_from_client
        flow.next_from_client = not flow.next_from_client
        if from_client:
            frame = build_ipv4_tcp_frame(
                flow.client_ip, flow.client_port, flow.server_ip, flow.server_port,
                TCP_ACK, seq=flow.client_seq, ack=flow.server_seq,
                payload=payload, pad_to=spec.packet_size,
            )
            flow.client_seq += len(payload)
        else:
            frame = build_ipv4_tcp_frame(
                flow.server_ip, flow.server_port, flow.client_ip, flow.client_port,
                TCP_ACK, seq=flow.server_seq, ack=flow.client_seq,
                payload=payload, pad_to=spec.packet_size,
            )
            flow.server_seq += len(payload)
        yield frame
        emitted += 1
        data_emitted += 1
        if budget is not None and emitted >= budget:
            return


class GeneratorSource:
    """Frame source over a generator factory; restarts when ``repeat`` is set.

    A burst is pulled with ``islice``, with no Python step per frame. A
    restart that yields nothing ends the source, so repeating an empty
    capture returns empty bursts instead of restarting forever.
    """

    def __init__(self, factory, repeat: bool = False):
        self._factory = factory
        self._repeat = repeat
        self._it = iter(factory())

    def next_burst(self, n: int) -> list:
        out = list(islice(self._it, n))
        while self._repeat and len(out) < n:
            self._it = iter(self._factory())
            more = list(islice(self._it, n - len(out)))
            if not more:
                self._repeat = False
            out += more
        return out


def synth_source(spec: WorkloadSpec, ruleset: RuleSet | None = None) -> GeneratorSource:
    return GeneratorSource(lambda: gen_synth(spec, ruleset), repeat=spec.repeat)
