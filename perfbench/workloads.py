"""The benchmark's workloads and the outcome each replay pass must reproduce.

Every workload is synthetic TCP/IPv4 traffic from ``gen_synth``, analysed by
two workers on the simulated clock against the corpus ruleset. The source is
paced at RATE_PPS, below the modelled capacity of every workload, so the
model drops nothing and every failed frame is a real failure.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field

from ringids.harness import EngineConfig, TimingModel, WorkloadSpec
from ringids.rules import Content, RuleSet

RULES_PATH = "tests/data/corpus.rules"
N_WORKERS = 2
RATE_PPS = 20_000.0
# TimingModel values when the benchmark was defined. They are pinned so that
# recalibrating the model's defaults cannot make the paced source drop.
TIMING = dict(acquire_us=0.5, useless_us=0.5, analysis_us=2.0, per_byte_us=0.002,
              per_candidate_us=0.05, per_alert_us=0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    packet_size: int
    n_flows: int
    frames: int  # frames in one replay pass; a pass takes about a second
    inline: bool = False
    useless: bool = False
    attack_sid: int | None = None
    attack_rate: float = 0.0
    # alerts per pass by sid, recorded when the workload was defined; attack
    # alerts and chance content matches are added by expected_outcome
    reference_alerts: dict[int, int] = field(default_factory=dict)

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            kind="synth", packet_size=self.packet_size, n_flows=self.n_flows,
            packet_count=self.frames, seed=seed,
            attack_sid=self.attack_sid, attack_rate=self.attack_rate,
        )

    def engine_config(self, rules_path: str) -> EngineConfig:
        return EngineConfig(
            n_workers=N_WORKERS, inline=self.inline, useless=self.useless,
            rules_path=rules_path, rate_pps=RATE_PPS, timing=TimingModel(**TIMING),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fwd64",
            why="Bare inline forwarding of 64B frames with no analysis: per-packet decode, "
                "dispatch, ring and TX-drain cost only; detection changes should not move it.",
            packet_size=64, n_flows=1024, frames=20_000, inline=True, useless=True,
        ),
        Workload(
            name="scan1500",
            why="1500B frames on 32 long-lived flows with 1% heartbleed payloads: the phase-1 "
                "automaton scan over payload and reassembled stream dominates.",
            packet_size=1500, n_flows=32, frames=500, attack_sid=30514, attack_rate=0.01,
            reference_alerts={100086: 241},
        ),
    )
}


@dataclass
class Expected:
    """What one replay pass of the workload's frames must produce."""

    frames: int
    frame_bytes: int
    crc_sum: int  # sum of crc32 over frames, an order-free digest of forwarded frames
    alerts: Counter


_ADDRS = struct.Struct(">4x II HH")  # from IPv4 offset 12: src, dst, sport, dport


def _tcp_fields(frame: bytes) -> tuple[int, int, int, int, bytes]:
    """Endpoints and payload of one gen_synth frame (IHL 5, TCP data offset 5)."""
    if frame[14] != 0x45 or frame[46] >> 4 != 5 or frame[23] != 6:
        raise ValueError("not a gen_synth TCP/IPv4 frame")
    src, dst, sport, dport = _ADDRS.unpack_from(frame, 22)
    tot_len = int.from_bytes(frame[16:18], "big")
    return src, sport, dst, dport, frame[54 : 14 + tot_len]


def _anywhere_rules(ruleset: RuleSet):
    """Rules that alert on any TCP packet whose payload holds one pattern.

    Random payloads hit these by chance (3-byte patterns about once per
    11,600 1500B frames), so their counts depend on the seed. Every other
    rule needs a 5-byte or longer chance match, or a flow or stream
    condition the traffic never meets by chance.
    """
    for rule in ruleset.rules:
        if rule.proto not in ("tcp", "ip") or rule.flow is not None or len(rule.options) != 1:
            continue
        (opt,) = rule.options
        if isinstance(opt, Content) and opt.offset == 0 and opt.depth is None and not opt.relative:
            yield rule, opt.pattern


def _header_matches(rule, variables, src, sport, dst, dport) -> bool:
    rs, rd = rule.src.resolve(variables), rule.dst.resolve(variables)

    def one_way(a, ap, b, bp):
        return rs.matches(a) and rule.src_ports.matches(ap) and rd.matches(b) and rule.dst_ports.matches(bp)

    return one_way(src, sport, dst, dport) or (rule.direction == "<>" and one_way(dst, dport, src, sport))


def expected_outcome(workload: Workload, frames: list[bytes], ruleset: RuleSet) -> Expected:
    alerts: Counter = Counter()
    if not workload.useless:
        alerts.update(workload.reference_alerts)
        if workload.attack_sid is not None:
            alerts[workload.attack_sid] += math.ceil(workload.attack_rate * workload.frames)
        rules = list(_anywhere_rules(ruleset))
        for frame in frames:
            src, sport, dst, dport, payload = _tcp_fields(frame)
            if not payload:
                continue
            for rule, pattern in rules:
                if pattern in payload and _header_matches(rule, ruleset.variables, src, sport, dst, dport):
                    alerts[rule.sid] += 1
    return Expected(
        frames=len(frames),
        frame_bytes=sum(map(len, frames)),
        crc_sum=sum(map(zlib.crc32, frames)),
        alerts=+alerts,
    )
