"""Rule evaluation semantics, prefilter completeness, verdicts, alert format."""

import random

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    HEARTBLEED_RULE,
    brute_force_matches,
    header_matches,
    make_context,
    make_flow,
    pipeline_matches,
    random_context,
    reference_candidates,
)

from ringids import detect, packet
from ringids.detect import (
    Alert,
    AnalysisWorker,
    evaluate_rule,
    format_alert_fast,
    prefilter,
)
from ringids.flow import FlowState, FlowTable
from ringids.harness.runner import ListAlertSink
from ringids.harness.synth import build_ipv4_frame, build_ipv4_icmp_frame, build_ipv4_tcp_frame, build_ipv4_udp_frame
from ringids.matching import MultiPatternMatcher
from ringids.packet import TCP_ACK, TCP_SYN, Direction, FiveTuple, PacketPool, Proto, decode, format_ip, parse_ip
from ringids.ring import Ring
from ringids.rules import compile_ruleset, load_ruleset


def compiled_of(*lines):
    return compile_ruleset(load_ruleset("\n".join(lines)))


def eval_single(line, ctx):
    """Whether the rule on ``line`` matches: the two-phase pipeline and the
    brute-force oracle must agree, so every semantics test checks both."""
    compiled = compiled_of(line)
    matched = pipeline_matches(compiled, ctx)
    assert matched == brute_force_matches(compiled, ctx)
    return bool(matched)


TCP_TUPLE = FiveTuple(Proto.TCP, "10.0.0.1", 5555, "10.0.0.2", 443)


def test_content_anywhere():
    line = 'alert tcp any any -> any any (content:"needle"; sid:1;)'
    assert eval_single(line, make_context(TCP_TUPLE, b"hay needle hay"))
    assert not eval_single(line, make_context(TCP_TUPLE, b"hay hay"))


def test_depth_pattern_must_fit():
    # 3-byte pattern with depth 3 matches only at payload offset 0
    line = 'alert tcp any any -> any any (content:"abc", depth 3; sid:1;)'
    assert eval_single(line, make_context(TCP_TUPLE, b"abcxx"))
    assert not eval_single(line, make_context(TCP_TUPLE, b"xabc"))


def test_offset_shifts_window():
    line = 'alert tcp any any -> any any (content:"abc", offset 2, depth 3; sid:1;)'
    assert eval_single(line, make_context(TCP_TUPLE, b"..abc"))
    assert not eval_single(line, make_context(TCP_TUPLE, b"abc.."))


def test_relative_content_chain():
    line = 'alert tcp any any -> any any (content:"AB"; content:"CD", relative, depth 2; sid:1;)'
    assert eval_single(line, make_context(TCP_TUPLE, b"xxABCDxx"))
    assert not eval_single(line, make_context(TCP_TUPLE, b"xxABxCDx"))
    # non-relative second content searches from the buffer start again
    line2 = 'alert tcp any any -> any any (content:"AB"; content:"CD", depth 2; sid:1;)'
    assert eval_single(line2, make_context(TCP_TUPLE, b"CDAB"))


def test_byte_test_big_endian_and_strictness():
    line = 'alert tcp any any -> any any (content:"|18 03 00|", depth 3; byte_test: 2,>,128,0,relative; sid:1;)'
    assert eval_single(line, make_context(TCP_TUPLE, bytes([0x18, 0x03, 0x00, 0x00, 0x90])))
    # 0x0080 == 128 fails the strict greater-than
    assert not eval_single(line, make_context(TCP_TUPLE, bytes([0x18, 0x03, 0x00, 0x00, 0x80])))
    # out-of-bounds read fails
    assert not eval_single(line, make_context(TCP_TUPLE, bytes([0x18, 0x03, 0x00, 0x00])))


def test_byte_test_absolute_and_ops():
    eq = 'alert tcp any any -> any any (byte_test: 1,=,66,1; sid:1;)'
    assert eval_single(eq, make_context(TCP_TUPLE, b"AB"))
    assert not eval_single(eq, make_context(TCP_TUPLE, b"AC"))
    lt = 'alert tcp any any -> any any (byte_test: 4,<,1000,0; sid:1;)'
    assert eval_single(lt, make_context(TCP_TUPLE, (999).to_bytes(4, "big")))
    assert not eval_single(lt, make_context(TCP_TUPLE, (1000).to_bytes(4, "big")))


def test_port_and_proto_header_filtering():
    line = 'alert tcp any [80, 8080] -> any any (content:"x"; sid:1;)'
    src80 = FiveTuple(Proto.TCP, "10.0.0.1", 80, "10.0.0.2", 1)
    src9 = FiveTuple(Proto.TCP, "10.0.0.1", 9, "10.0.0.2", 1)
    udp80 = FiveTuple(Proto.UDP, "10.0.0.1", 80, "10.0.0.2", 1)
    assert eval_single(line, make_context(src80, b"x"))
    assert not eval_single(line, make_context(src9, b"x"))
    assert not eval_single(line, make_context(udp80, b"x"))


def test_bidirectional_arrow_matches_either_orientation():
    line = 'alert tcp any 443 <> any any (content:"x"; sid:1;)'
    from_server = FiveTuple(Proto.TCP, "10.0.0.2", 443, "10.0.0.1", 999)
    to_server = FiveTuple(Proto.TCP, "10.0.0.1", 999, "10.0.0.2", 443)
    assert eval_single(line, make_context(from_server, b"x"))
    assert eval_single(line, make_context(to_server, b"x"))


def test_net_specs_respected():
    line = 'alert tcp 10.0.0.0/8 any -> 192.168.1.0/24 any (content:"x"; sid:1;)'
    good = FiveTuple(Proto.TCP, "10.5.5.5", 1, "192.168.1.9", 2)
    bad = FiveTuple(Proto.TCP, "11.5.5.5", 1, "192.168.1.9", 2)
    assert eval_single(line, make_context(good, b"x"))
    assert not eval_single(line, make_context(bad, b"x"))


def test_flow_established_required():
    line = 'alert tcp any any -> any any (flow: established; content:"x"; sid:1;)'
    new_flow = make_flow(TCP_TUPLE, state=FlowState.NEW)
    est_flow = make_flow(TCP_TUPLE, state=FlowState.ESTABLISHED)
    assert not eval_single(line, make_context(TCP_TUPLE, b"x", flow=new_flow))
    assert eval_single(line, make_context(TCP_TUPLE, b"x", flow=est_flow))
    # no flow context at all
    assert not eval_single(line, make_context(TCP_TUPLE, b"x"))


def test_flow_direction_options():
    line_tc = 'alert tcp any any -> any any (flow: to_client; content:"x"; sid:1;)'
    line_ts = 'alert tcp any any -> any any (flow: to_server; content:"x"; sid:2;)'
    flow = make_flow(TCP_TUPLE)  # initiator sent the canonical-direction packet
    fwd = flow.initiator_direction
    ctx_to_server = make_context(TCP_TUPLE, b"x", flow=flow, direction=fwd)
    ctx_to_client = make_context(TCP_TUPLE, b"x", flow=flow, direction=fwd.flipped())
    assert eval_single(line_ts, ctx_to_server) and not eval_single(line_tc, ctx_to_server)
    assert eval_single(line_tc, ctx_to_client) and not eval_single(line_ts, ctx_to_client)


def test_only_stream_evaluates_stream_bytes_only():
    line = 'alert tcp any any -> any any (flow: established, only_stream; content:"secret"; sid:1;)'
    flow = make_flow(TCP_TUPLE)
    in_payload = make_context(TCP_TUPLE, b"secret", flow=flow, stream=None)
    in_stream = make_context(TCP_TUPLE, b"...", flow=flow, stream=b"a secret b")
    assert not eval_single(line, in_payload)
    assert eval_single(line, in_stream)


def test_opaque_options_vacuously_true():
    line = 'alert tcp any any -> any any (content:"x"; pcre:"/y$/"; sid:1;)'
    assert eval_single(line, make_context(TCP_TUPLE, b"x"))


def test_prefilter_includes_contentless_and_filters_ports():
    compiled = compiled_of(
        'alert tcp any any -> any 443 (content:"abcdef"; sid:1;)',
        'alert tcp any any -> any any (flow: established; sid:2;)',
        'alert udp any any -> any any (content:"abcdef"; sid:3;)',
    )
    ctx = make_context(TCP_TUPLE, b"...abcdef...")
    cands = prefilter(compiled, ctx)
    assert 1 in cands  # pattern present, port matches
    assert 2 in cands  # contentless, proto matches
    assert 3 not in cands  # udp bucket not scanned for tcp packet


def test_prefilter_scans_each_buffer_once(monkeypatch):
    compiled = compiled_of(
        'alert tcp any any -> any any (content:"abcdef"; sid:1;)',
        'alert ip any any -> any any (content:"uvwxyz"; sid:2;)',
        'alert tcp any any -> any any (flow: only_stream; content:"abcdef"; sid:3;)',
        'alert udp any any -> any any (content:"abcdef"; sid:4;)',
    )
    scanned = []
    scan = MultiPatternMatcher.scan

    def counting_scan(self, data):
        scanned.append(bytes(data))
        return scan(self, data)

    monkeypatch.setattr(MultiPatternMatcher, "scan", counting_scan)
    payload = b"..abcdef..uvwxyz.."
    flow = make_flow(TCP_TUPLE)

    # stream bytes equal to the payload reuse the payload scan
    assert prefilter(compiled, make_context(TCP_TUPLE, payload, flow=flow, stream=payload)) == {1, 2, 3}
    assert scanned == [payload]

    # stream bytes that differ get their own scan
    scanned.clear()
    assert prefilter(compiled, make_context(TCP_TUPLE, payload, flow=flow, stream=b"xxabcdef")) == {1, 2, 3}
    assert scanned == [payload, b"xxabcdef"]
    scanned.clear()
    assert prefilter(compiled, make_context(TCP_TUPLE, payload, flow=flow, stream=b"zzz")) == {1, 2}
    assert len(scanned) == 2

    scanned.clear()
    udp = FiveTuple(Proto.UDP, "10.0.0.1", 5555, "10.0.0.2", 53)
    assert prefilter(compiled, make_context(udp, payload)) == {2, 4}
    assert scanned == [payload]


def test_two_phase_equivalence_other_proto(corpus_text, scan_kernel):
    # portless ip rules, so that protocol-0 packets can match something
    extra = "\n".join([
        'alert ip any any -> any any (content:"portless|00|ip"; sid:900001;)',
        'alert ip any any <> any any (content:"exfil|9e 72|"; content:"x"; sid:900002;)',
        'alert ip any any -> any any (byte_test: 1,>,200,0; sid:900003;)',
        'alert tcp any any -> any any (content:"portless|00|ip"; sid:900004;)',
    ])
    compiled = compile_ruleset(load_ruleset(corpus_text + "\n" + extra))
    from conftest import random_context

    rng = random.Random(606)
    matched = 0
    for _ in range(400):
        ctx = random_context(rng, compiled, proto=Proto.OTHER)
        expected = brute_force_matches(compiled, ctx)
        assert pipeline_matches(compiled, ctx) == expected
        assert 900004 not in prefilter(compiled, ctx)
        matched += bool(expected)
    assert matched > 0


def test_prefilter_no_false_negatives_random(corpus_ruleset, scan_kernel):
    compiled = compile_ruleset(corpus_ruleset)
    from conftest import random_context

    rng = random.Random(4242)
    for _ in range(400):
        ctx = random_context(rng, compiled)
        assert brute_force_matches(compiled, ctx) <= prefilter(compiled, ctx)


def test_two_phase_equivalence_small(corpus_ruleset, scan_kernel):
    compiled = compile_ruleset(corpus_ruleset)
    from conftest import random_context

    rng = random.Random(987)
    disagreements = 0
    for _ in range(600):
        ctx = random_context(rng, compiled)
        if pipeline_matches(compiled, ctx) != brute_force_matches(compiled, ctx):
            disagreements += 1
    assert disagreements == 0


# --- worker / verdict behavior ------------------------------------------


def make_worker(compiled, inline=False, useless=False, n_ring=64):
    pool = PacketPool(capacity=n_ring + 8)
    tx = Ring(n_ring)
    sink = ListAlertSink()
    worker = AnalysisWorker(
        pool=pool, compiled=compiled, tx_ring=tx if inline else None, alert_sink=sink,
        useless_mode=useless,
    )
    return worker, pool, tx, sink


def ingest(pool, payload=b"attack", sport=1000, dport=443, flags=TCP_ACK, seq=1,
           src="10.0.0.1", dst="10.0.0.2"):
    frame = build_ipv4_tcp_frame(parse_ip(src), sport, parse_ip(dst), dport,
                                 flags=flags, seq=seq, payload=payload)
    return decode(frame, 0, pool)


def test_alert_action_passive_allows_and_alerts():
    compiled = compiled_of('alert tcp any any -> any any (content:"attack"; sid:77;)')
    worker, pool, tx, sink = make_worker(compiled, inline=False)
    verdict, alerts = worker.process_packet(ingest(pool), 1_234)
    assert verdict == "allow"
    assert [a.sid for a in alerts] == [77]
    assert alerts[0].now_us == 1_234  # stamped with the time the worker was given
    assert len(tx) == 0  # passive mode never feeds the TX ring
    assert pool.in_use_count() == 0
    assert worker.stats.analyzed == 1 and worker.stats.blocked == 0


def test_full_flow_table_analyses_without_flow_context():
    """A packet of a flow the full table cannot hold is analysed flowless:
    content rules still match, flow-constrained ones cannot."""
    compiled = compiled_of(
        'alert tcp any any -> any any (content:"attack"; sid:1;)',
        'alert tcp any any -> any any (flow: established; content:"attack"; sid:2;)',
    )
    worker, pool, _, _ = make_worker(compiled)
    worker.flow_table = FlowTable(max_flows=1)
    for kw in (dict(flags=TCP_SYN, seq=0),
               dict(flags=TCP_SYN | TCP_ACK, seq=0, src="10.0.0.2", dst="10.0.0.1", sport=443, dport=1000),
               dict(seq=1)):
        worker.process_packet(ingest(pool, payload=b"", **kw), 0)
    _, first = worker.process_packet(ingest(pool, seq=1), 1)
    _, second = worker.process_packet(ingest(pool, sport=2000), 2)
    assert sorted(a.sid for a in first) == [1, 2]  # the tracked, established flow
    assert [a.sid for a in second] == [1]
    assert worker.stats.flowless == 1
    assert len(worker.flow_table) == 1
    assert pool.in_use_count() == 0


def test_drop_action_inline_blocks():
    compiled = compiled_of('drop tcp any any -> any any (content:"attack"; sid:78;)')
    worker, pool, tx, sink = make_worker(compiled, inline=True)
    verdict, alerts = worker.process_packet(ingest(pool), 0)
    assert verdict == "block"
    assert alerts[0].action_taken == "blocked"
    assert len(tx) == 0
    assert pool.in_use_count() == 0
    assert worker.stats.blocked == 1


def test_policy_drop_metadata_blocks_inline_only():
    line = 'alert tcp any any -> any any (content:"attack"; metadata: policy balanced-ips drop; sid:79;)'
    compiled = compiled_of(line)
    worker, pool, tx, _ = make_worker(compiled, inline=True)
    verdict, _ = worker.process_packet(ingest(pool), 0)
    assert verdict == "block"
    worker2, pool2, _, _ = make_worker(compiled, inline=False)
    verdict2, _ = worker2.process_packet(ingest(pool2), 0)
    assert verdict2 == "allow"


def test_clean_packet_inline_goes_to_tx():
    compiled = compiled_of('alert tcp any any -> any any (content:"attack"; sid:80;)')
    worker, pool, tx, _ = make_worker(compiled, inline=True)
    verdict, alerts = worker.process_packet(ingest(pool, payload=b"innocuous"), 0)
    assert verdict == "allow" and not alerts
    assert len(tx) == 1  # slot stays held until the acquisition side drains
    assert pool.in_use_count() == 1


def test_useless_mode_skips_analysis():
    compiled = compiled_of('alert tcp any any -> any any (content:"attack"; sid:81;)')
    worker, pool, _, sink = make_worker(compiled, useless=True)
    verdict, alerts = worker.process_packet(ingest(pool), 0)
    assert verdict == "allow" and not alerts and not sink.alerts
    assert worker.stats.analyzed == 1
    assert len(worker.flow_table) == 0


def test_worker_tracks_flow_and_stream_rules():
    compiled = compiled_of(HEARTBLEED_RULE)
    worker, pool, _, sink = make_worker(compiled)
    # client -> server handshake, from 10.0.0.1:5555 to 10.0.0.2:443
    worker.process_packet(ingest(pool, payload=b"", flags=TCP_SYN, seq=0, sport=5555, dport=443), 0)
    worker.process_packet(ingest(pool, payload=b"", flags=TCP_SYN | TCP_ACK, seq=0,
                                 src="10.0.0.2", dst="10.0.0.1", sport=443, dport=5555), 1)
    worker.process_packet(ingest(pool, payload=b"", flags=TCP_ACK, seq=1, sport=5555, dport=443), 2)
    assert not sink.alerts
    # server -> client heartbeat response, length 0x0090 > 128
    verdict, alerts = worker.process_packet(
        ingest(pool, payload=bytes([0x18, 0x03, 0x00, 0x00, 0x90]), flags=TCP_ACK, seq=1,
               src="10.0.0.2", dst="10.0.0.1", sport=443, dport=5555),
        3,
    )
    assert [a.sid for a in alerts] == [30514]


def test_alert_fast_format_exact():
    alert = Alert(
        sid=30514, rev=9,
        msg="OpenSSL SSLv3 large heartbeat response - possible ssl heartbleed attempt",
        classtype="attempted-recon", now_us=1_000_000,
        tuple=FiveTuple(Proto.TCP, "10.0.0.2", 443, "10.0.0.1", 5555),
        slot=0, action_taken="alerted",
    )
    assert format_alert_fast(alert) == (
        "01/01-00:00:01.000000 [**] [1:30514:9] OpenSSL SSLv3 large heartbeat response"
        " - possible ssl heartbleed attempt [**] [Classification: attempted-recon]"
        " {TCP} 10.0.0.2:443 -> 10.0.0.1:5555"
    )


def test_alert_format_omits_empty_classtype_and_rolls_time():
    alert = Alert(sid=1, rev=2, msg="m", classtype="", now_us=((31 + 1) * 86_400 + 3_661) * 1_000_000 + 42,
                  tuple=FiveTuple(Proto.UDP, "1.2.3.4", 53, "5.6.7.8", 5353), slot=0, action_taken="alerted")
    line = format_alert_fast(alert)
    assert line == "02/02-01:01:01.000042 [**] [1:1:2] m [**] {UDP} 1.2.3.4:53 -> 5.6.7.8:5353"


def test_two_alerts_emitted_in_order():
    compiled = compiled_of(
        'alert tcp any any -> any any (content:"attack"; sid:5;)',
        'alert tcp any any -> any any (content:"atta"; sid:3;)',
    )
    worker, pool, _, sink = make_worker(compiled)
    _, alerts = worker.process_packet(ingest(pool), 0)
    assert [a.sid for a in alerts] == [3, 5]
    assert [a.sid for a in sink.alerts] == [3, 5]


# --- alert line against the per-packet formatter it replaced ------------

_REF_DAYS_PER_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _ref_timestamp(now_us: int) -> str:
    """MM/DD-HH:MM:SS.UUUUUU relative to engine start (non-leap calendar)."""
    us = now_us % 1_000_000
    total_s = now_us // 1_000_000
    days = total_s // 86_400
    rem = total_s % 86_400
    month = 0
    while days >= _REF_DAYS_PER_MONTH[month]:
        days -= _REF_DAYS_PER_MONTH[month]
        month = (month + 1) % 12
    return (
        f"{month + 1:02d}/{days + 1:02d}-"
        f"{rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}.{us:06d}"
    )


def _ref_format_alert_fast(alert: Alert) -> str:
    """One `fast` output line, bit-exact field layout."""
    cls = f" [Classification: {alert.classtype}]" if alert.classtype else ""
    t = alert.tuple
    return (
        f"{_ref_timestamp(alert.now_us)} [**] [1:{alert.sid}:{alert.rev}] {alert.msg} [**]{cls}"
        f" {{{t.proto.label}}} {format_ip(t.src_ip)}:{t.src_port}"
        f" -> {format_ip(t.dst_ip)}:{t.dst_port}"
    )


THREE_YEARS_US = 3 * 365 * 86_400 * 1_000_000


@st.composite
def five_tuples(draw):
    proto = draw(st.sampled_from(list(Proto)))
    ports = st.integers(0, 65535) if proto in (Proto.TCP, Proto.UDP) else st.just(0)
    ip = st.integers(0, 2**32 - 1)
    return FiveTuple(proto, draw(ip), draw(ports), draw(ip), draw(ports))


alert_texts = st.one_of(
    st.text(max_size=40),
    st.sampled_from(['say "hi"', "back\\slash", 'both \\" kinds', "naïve ☃ 🚀", "tab\tand ]brackets["]),
)


@given(
    sid=st.integers(1, 2**31), rev=st.integers(0, 100), msg=alert_texts,
    classtype=st.one_of(st.just(""), alert_texts), now_us=st.integers(0, THREE_YEARS_US), tuple_=five_tuples(),
)
def test_alert_line_equals_reference(sid, rev, msg, classtype, now_us, tuple_):
    alert = Alert(sid, rev, msg, classtype, now_us, tuple_, 0, "alerted")
    assert format_alert_fast(alert) == _ref_format_alert_fast(alert)


def test_alert_line_equals_reference_past_cache_bounds():
    """More distinct seconds and rules than the text caches hold,
    then the first ones again after they were evicted."""
    rng = random.Random(31)
    n = max(detect.SECOND_TEXT_MEMO_ENTRIES, detect.RULE_TEXT_MEMO_ENTRIES) + 100
    alerts = []
    for i in range(n):
        proto = rng.choice(list(Proto))
        ports = (rng.randrange(65536), rng.randrange(65536)) if proto in (Proto.TCP, Proto.UDP) else (0, 0)
        t = FiveTuple(proto, rng.getrandbits(32), ports[0], rng.getrandbits(32), ports[1])
        now_us = i * 1_000_000 + rng.randrange(1_000_000) + rng.randrange(THREE_YEARS_US // 1_000_000) * 1_000_000
        alerts.append(Alert(i, i % 7, f"m{i}", "c" if i % 2 else "", now_us, t, 0, "alerted"))
    caches = (detect._second_text, detect._rule_text)
    for cache in caches:
        cache.cache_clear()
    for alert in alerts + alerts[:200]:
        assert format_alert_fast(alert) == _ref_format_alert_fast(alert)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize == info.maxsize and info.misses > info.maxsize  # evictions ran


def frame_carrying(t: FiveTuple) -> bytes:
    if t.proto is Proto.TCP:
        return build_ipv4_tcp_frame(t.src_ip, t.src_port, t.dst_ip, t.dst_port, flags=TCP_ACK, payload=b"x")
    if t.proto is Proto.UDP:
        return build_ipv4_udp_frame(t.src_ip, t.src_port, t.dst_ip, t.dst_port, payload=b"x")
    if t.proto is Proto.ICMP:
        return build_ipv4_icmp_frame(t.src_ip, t.dst_ip, payload=b"x")
    return build_ipv4_frame(t.src_ip, t.dst_ip, 47, b"x")  # GRE: no transport header decode reads


def test_alert_line_of_decoded_tuple_equals_reference(acquisition_kernel):
    """Alert lines over the 5-tuples that decode builds, in C or in Python,
    equal the reference formatter's, and each tuple is the frame's own."""
    rng = random.Random(47)
    pool = PacketPool(capacity=1)
    for i in range(400):
        proto = rng.choice(list(Proto))
        ports = (rng.randrange(65536), rng.randrange(65536)) if proto in (Proto.TCP, Proto.UDP) else (0, 0)
        t = FiveTuple(proto, rng.getrandbits(32), ports[0], rng.getrandbits(32), ports[1])
        desc = packet.decode(frame_carrying(t), i, pool)
        pool.release(desc.slot)
        assert desc.tuple == t and desc.tuple.proto is proto
        now_us = rng.randrange(THREE_YEARS_US)
        alert = Alert(i, i % 7, f"m{i}", "c" if i % 2 else "", now_us, desc.tuple, 0, "alerted")
        assert format_alert_fast(alert) == _ref_format_alert_fast(alert)


# --- rule headers, decided once in phase 1 ------------------------------------

HEADER_RULES = "\n".join([
    'alert tcp any [80, 8080] <> any [1337, 6667] (flow: established; sid:910001;)',
    'alert tcp any any -> any 443 (flow: to_server; sid:910002;)',
    'alert udp any 53 <> any any (byte_test: 1,>,100,0; sid:910003;)',
    'alert ip any any -> any any (byte_test: 1,<,20,0; sid:910004;)',
    'alert tcp any 25 <> any [80, 443] (content:"MAIL"; sid:910005;)',
    'alert tcp any [25, 443] -> any [80, 1337] (byte_test: 1,>,50,1; sid:910006;)',
    'alert icmp any any -> any any (sid:910007;)',
    'alert tcp 10.0.0.0/8 80 <> any any (byte_test: 1,>,10,0; sid:910008;)',
    'alert tcp [10.1.0.0/16, 192.168.1.7] any -> 10.0.0.5 [80, 443] (sid:910009;)',
])


def test_admitted_matches_header_oracle_and_brute_force(corpus_text, scan_kernel):
    """Contentless and fast-pattern rules, `->` and `<>`, with ports and
    addresses on either side, over random tuples whose ports and addresses
    often hit the rules' lists: of the bucket's contentless rules and any
    fast-pattern hits from the bucket's automaton, phase 1 keeps exactly
    those whose header the oracle says admits the tuple."""
    compiled = compile_ruleset(load_ruleset(corpus_text + "\n" + HEADER_RULES))
    rng = random.Random(515)
    for _ in range(400):
        ctx = random_context(rng, compiled)
        t = ctx.tuple
        assert pipeline_matches(compiled, ctx) == brute_force_matches(compiled, ctx)
        bucket = [rule for rule in compiled.rules.values() if rule.proto in ("ip", t.proto.name.lower())]
        contentless = {rule.sid for rule in bucket if rule.fast_pattern is None}
        hits = {rule.sid for rule in bucket if rule.fast_pattern is not None and rng.random() < 0.5}
        expected = {sid for sid in contentless | hits if header_matches(compiled.rules[sid], t)}
        assert compiled.admitted(t, hits) == expected


SHARED_PATTERN_RULES = "\n".join([
    'alert tcp any any -> any any (content:"sharedfast"; sid:920001;)',
    'alert ip any any -> any any (content:"sharedfast"; sid:920002;)',
    'alert tcp any any -> any any (flow: only_stream; content:"sharedfast"; sid:920003;)',
    'alert ip any any -> any any (flow: only_stream; content:"sharedfast"; sid:920004;)',
    'alert tcp any any -> any any (flow: only_stream; byte_test: 1,>,3,0; sid:920005;)',
])


def test_prefilter_equals_reference_candidates(corpus_text, scan_kernel):
    """Phase 1 yields exactly the reference's candidates, not merely a
    superset of the matches: the timing model prices each one. The rules add
    one fast pattern shared by tcp, ``ip`` and only-stream rules, and a
    contentless only-stream rule; the stream is absent, empty, the payload
    object itself, an equal copy or other bytes holding a pattern."""
    compiled = compile_ruleset(load_ruleset(corpus_text + "\n" + SHARED_PATTERN_RULES))
    patterns = [rule.fast_pattern for rule in compiled.rules.values() if rule.fast_pattern is not None]
    rng = random.Random(1717)

    def with_pattern(data: bytes) -> bytes:
        pattern = b"sharedfast" if rng.random() < 0.5 else rng.choice(patterns)
        pos = rng.randrange(len(data) + 1)
        return data[:pos] + pattern + data[pos:]

    for i in range(1500):
        ctx = random_context(rng, compiled, proto=rng.choice([None, None, None, Proto.OTHER]))
        if rng.random() < 0.3:
            ctx.payload = with_pattern(ctx.payload)
        payload = ctx.payload
        streams = (None, b"", payload, bytes(bytearray(payload)), with_pattern(rng.randbytes(rng.randrange(60))))
        ctx.stream_bytes = streams[i % len(streams)]
        assert prefilter(compiled, ctx) == reference_candidates(compiled, ctx)


def test_evaluate_rule_reads_no_header():
    """Phase 2 checks flow and options only: the header is phase 1's."""
    compiled = compiled_of('alert tcp 10.0.0.0/8 80 -> any 443 (content:"x"; sid:1;)')
    udp = FiveTuple(Proto.UDP, "1.2.3.4", 9, "5.6.7.8", 9)
    ctx = make_context(udp, b"x")
    assert evaluate_rule(compiled.rules[1], ctx)
    assert prefilter(compiled, ctx) == set() and not header_matches(compiled.rules[1], udp)


def test_bidirectional_header_takes_ports_and_addresses_the_same_way_round():
    """Ports that fit one way round and addresses that fit the other are no
    match, for a fast-pattern rule and a contentless one alike."""
    for options in ('content:"x"', "byte_test: 1,=,120,0"):
        line = f"alert tcp 10.0.0.0/8 80 <> any any ({options}; sid:1;)"
        crossed = FiveTuple(Proto.TCP, "1.2.3.4", 80, "10.1.1.1", 5555)
        assert not eval_single(line, make_context(crossed, b"x"))
        assert not eval_single(line, make_context(crossed.reversed(), b"x"))
        forward = FiveTuple(Proto.TCP, "10.1.1.1", 80, "1.2.3.4", 5555)
        assert eval_single(line, make_context(forward, b"x"))
        assert eval_single(line, make_context(forward.reversed(), b"x"))


def test_address_lists_and_prefix_edges():
    """A bracketed list of nets, an unmasked net, `/0` and `/32`, at and
    just past each network's edges."""
    lines = [
        'alert tcp [10.0.0.0/8, 192.168.1.7, 172.16.0.0/12] any -> any any (content:"x"; sid:1;)',
        'alert tcp 0.0.0.0/0 any -> 10.0.0.5/32 any (content:"x"; sid:2;)',
        'alert tcp 192.168.1.77/24 any <> [10.0.0.5, 0.0.0.0/0] any (byte_test: 1,=,120,0; sid:3;)',
    ]
    inside = {
        1: ["10.0.0.0", "10.255.255.255", "192.168.1.7", "172.16.0.0", "172.31.255.255"],
        3: ["192.168.1.0", "192.168.1.255"],
    }
    outside = {
        1: ["9.255.255.255", "11.0.0.0", "192.168.1.6", "192.168.1.8", "172.15.255.255", "172.32.0.0"],
        3: ["192.168.0.255", "192.168.2.0"],
    }
    for sid in (1, 3):
        for src in inside[sid]:
            assert eval_single(lines[sid - 1], make_context(FiveTuple(Proto.TCP, src, 1, "8.8.8.8", 2), b"x"))
        for src in outside[sid]:
            assert not eval_single(lines[sid - 1], make_context(FiveTuple(Proto.TCP, src, 1, "8.8.8.8", 2), b"x"))
    for src in ("0.0.0.0", "255.255.255.255"):
        assert eval_single(lines[1], make_context(FiveTuple(Proto.TCP, src, 1, "10.0.0.5", 2), b"x"))
    for dst in ("10.0.0.4", "10.0.0.6"):
        assert not eval_single(lines[1], make_context(FiveTuple(Proto.TCP, "1.1.1.1", 1, dst, 2), b"x"))

    compiled = compiled_of(*lines)
    edges = sorted({a for addrs in (*inside.values(), *outside.values()) for a in addrs}
                   | {"0.0.0.0", "255.255.255.255", "10.0.0.4", "10.0.0.5", "10.0.0.6", "8.8.8.8"})
    for src in edges:
        for dst in edges:
            ctx = make_context(FiveTuple(Proto.TCP, src, 1, dst, 2), b"x")
            assert pipeline_matches(compiled, ctx) == brute_force_matches(compiled, ctx)
