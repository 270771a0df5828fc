"""Metric definitions: names, units, direction, bounds, and what each moves.

END_TO_END are measured with tracing off (``run.py`` says which statistic).
The per-layer metrics come from a traced run; each names the end-to-end
metric and workload it should move. A timed span
gives three metrics: its median, its tail, and its call count. The tail is
the highest of p99, p90 and p50 with at least ten samples beyond it, so the
call count says which one it is (1000+ calls: p99, 100+: p90).
"""

from __future__ import annotations

import statistics

PPS_ON = "wall_pps on "

END_TO_END = [
    # name, unit, better, bound
    ("wall_pps", "1/s", "higher", 0.25),
    ("wall_mbps", "Mbit/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("delivered_frac", "ratio", "higher", 0.001),
]

# metric, tracer sample key, unit, scale from ns, what it moves
SPANS = [
    ("packet.decode_us", "packet.decode", "us", 1e-3, PPS_ON + "fwd64"),
    ("acquire.ingest_us", "acquire.ingest_self", "us", 1e-3, PPS_ON + "fwd64 (self time of ingest_frame)"),
    ("acquire.hash_us", "acquire.hash", "us", 1e-3, PPS_ON + "fwd64"),
    ("ring.enqueue_us", "ring.enqueue", "us", 1e-3, PPS_ON + "fwd64"),
    ("ring.dequeue_us", "ring.dequeue", "us", 1e-3, PPS_ON + "fwd64 (per element)"),
    ("ring.peek_us", "ring.peek", "us", 1e-3, PPS_ON + "fwd64 (the runner's poll)"),
    ("replay.read_us", "replay.read", "us", 1e-3, PPS_ON + "fwd64 (capture reader, per frame)"),
    ("flow.lookup_us", "flow.lookup", "us", 1e-3, PPS_ON + "scan1500 (per packet)"),
    ("flow.update_us", "flow.update", "us", 1e-3, PPS_ON + "scan1500 (per packet)"),
    ("flow.reassemble_us", "flow.reassemble", "us", 1e-3, PPS_ON + "scan1500 (per segment)"),
    ("matching.scan_ns_per_byte.tcp", "matching.scan.tcp", "ns/B", 1.0, "wall_pps and wall_mbps on scan1500"),
    ("matching.scan_ns_per_byte.ip", "matching.scan.ip", "ns/B", 1.0, "wall_pps and wall_mbps on scan1500"),
    ("rules.scan_payload_us", "rules.scan_payload", "us", 1e-3, PPS_ON + "scan1500"),
    ("detect.process_us", "detect.process", "us", 1e-3, PPS_ON + "scan1500"),
    ("detect.prefilter_us", "detect.prefilter", "us", 1e-3, PPS_ON + "scan1500"),
    ("detect.eval_us", "detect.eval", "us", 1e-3, PPS_ON + "scan1500 (per evaluate_rule call)"),
    ("detect.alert_format_us", "detect.alert_format", "us", 1e-3, PPS_ON + "scan1500"),
]

# name, unit, better, what it moves
SINGLES = [
    ("acquire.tx_drain_us", "us", "lower", PPS_ON + "fwd64 (mean per frame sent)"),
    ("runner.driver_self_us", "us", "lower", PPS_ON + "all workloads (per packet, outside every span)"),
    ("rules.compile_s", "s", "lower", "setup_s on all workloads (median per pass)"),
    ("synth.gen_us", "us", "lower", "nothing: frames are generated before timing (per frame)"),
    ("packet.pool_hwm", "slots", "lower", "delivered_frac on all workloads"),
    ("acquire.dropped", "count", "lower", "delivered_frac on all workloads (per pass)"),
    ("acquire.decode_failed", "count", "lower", "delivered_frac on all workloads (per pass)"),
    ("ring.rx_hwm", "count", "lower", "delivered_frac on all workloads"),
    ("ring.tx_hwm", "count", "lower", "delivered_frac on fwd64"),
    ("flow.created", "count", "lower", PPS_ON + "scan1500 (per pass)"),
    ("flow.stream_bytes", "bytes", "lower", PPS_ON + "scan1500 (per pass)"),
    ("flow.footprint_bytes", "bytes", "lower", "peak_rss_mb on scan1500"),
    ("matching.scans_per_packet", "count", "lower", PPS_ON + "scan1500"),
    ("matching.states", "count", "lower", "setup_s and peak_rss_mb on all workloads"),
    ("detect.candidates_per_packet", "count", "lower", PPS_ON + "scan1500"),
    ("detect.prefilter_precision", "ratio", "higher", PPS_ON + "scan1500 (matched / candidates)"),
    ("detect.alerts_per_packet", "count", "lower", PPS_ON + "scan1500"),
    ("boundary.trusted_bytes", "bytes", "lower", "peak_rss_mb (modelled, flat per-rule charge)"),
    ("trace.traced_wall_pps", "1/s", "higher", "tracing overhead: wall_pps of the traced passes"),
    ("trace.untraced_wall_pps", "1/s", "higher", "tracing overhead: wall_pps of the untraced passes"),
    ("trace.slowdown", "x", "lower", "tracing overhead: untraced / traced wall_pps"),
]


def per_layer_specs() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, moves) for every per-layer metric."""
    out = []
    for name, _key, unit, _scale, moves in SPANS:
        out.append((name + ".p50", unit, "lower", moves))
        out.append((name + ".ptail", unit, "lower", moves))
        out.append((name + ".calls", "count", "lower", moves))
    out.extend(SINGLES)
    return out


def tail(sorted_values: list[float]) -> float:
    n = len(sorted_values)
    for q, need in ((0.99, 1000), (0.90, 100)):
        if n >= need:
            return sorted_values[min(int(q * n), n - 1)]
    return statistics.median(sorted_values) if sorted_values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(tracer, passes_traced: int, gen_us: float, traced_pps: float, untraced_pps: float) -> dict:
    values = {}
    for name, key, _unit, scale, _moves in SPANS:
        data = sorted(tracer.samples.get(key, ()))
        values[name + ".p50"] = statistics.median(data) * scale if data else 0.0
        values[name + ".ptail"] = tail(data) * scale
        values[name + ".calls"] = len(data)
    c, last = tracer.counts, tracer.last
    packets = len(tracer.samples.get("detect.process", ()))
    values.update({
        "acquire.tx_drain_us": _ratio(c["acquire.tx_drain_ns"], c["acquire.tx_sent"]) * 1e-3,
        "runner.driver_self_us": _ratio(c["runner.self_ns"], packets) * 1e-3,
        "rules.compile_s": statistics.median(tracer.samples["rules.compile"]) * 1e-9
        if tracer.samples.get("rules.compile") else 0.0,
        "synth.gen_us": gen_us,
        "packet.pool_hwm": tracer.peaks["packet.pool_hwm"],
        "acquire.dropped": last.get("acquire.dropped", 0),
        "acquire.decode_failed": last.get("acquire.decode_failed", 0),
        "ring.rx_hwm": tracer.peaks["ring.rx_hwm"],
        "ring.tx_hwm": tracer.peaks["ring.tx_hwm"],
        "flow.created": last.get("flow.created", 0),
        "flow.stream_bytes": c["flow.stream_bytes"] / max(passes_traced, 1),
        "flow.footprint_bytes": last.get("flow.footprint_bytes", 0),
        "matching.scans_per_packet": _ratio(c["matching.scans"], packets),
        "matching.states": tracer.states,
        "detect.candidates_per_packet": _ratio(c["detect.candidates"], len(tracer.samples.get("detect.prefilter", ()))),
        "detect.prefilter_precision": _ratio(c["detect.matched"], c["detect.candidates"]),
        "detect.alerts_per_packet": _ratio(len(tracer.samples.get("detect.alert_format", ())), packets),
        "boundary.trusted_bytes": last.get("boundary.trusted_bytes", 0),
        "trace.traced_wall_pps": traced_pps,
        "trace.untraced_wall_pps": untraced_pps,
        "trace.slowdown": _ratio(untraced_pps, traced_pps),
    })
    return values
