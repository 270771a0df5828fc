"""Rule evaluation semantics, prefilter completeness, verdicts, alert format."""

import itertools
import random
from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_PATH,
    HEARTBLEED_RULE,
    brute_force_matches,
    build_ipv4_icmp_frame,
    build_ipv4_udp_frame,
    flipped,
    header_matches,
    make_context,
    make_flow,
    pipeline_matches,
    random_context,
    reference_candidates,
    reference_match,
    reverse,
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
from ringids.harness import EngineConfig, WorkloadSpec, run_experiment
from ringids.harness.runner import ListAlertSink
from ringids.harness.synth import build_ipv4_frame, build_ipv4_tcp_frame
from ringids.matching import MultiPatternMatcher
from ringids.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    Direction,
    FiveTuple,
    PacketPool,
    Proto,
    decode,
    format_ip,
    parse_ip,
)
from ringids.rules import CompiledRuleSet, compile_ruleset, load_ruleset, parse_rule


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


@pytest.mark.parametrize("payload, matches", [
    (b"USER root\r\n", True),
    (b"USER bob\r\nUSER root\r\n", True),  # a decoy first copy of the first content
    (b"USER bob\r\nUSER rot\r\n", False),
])
def test_a_decoy_first_content_does_not_hide_the_match(payload, matches):
    """A relative content is tried after each occurrence of the content it
    follows, not only after the first."""
    line = 'alert tcp any any -> any any (content:"USER "; content:"root", relative, depth 4; sid:1;)'
    assert eval_single(line, make_context(TCP_TUPLE, payload)) is matches
    assert reference_match(parse_rule(line), payload) is matches


_PIECES = ("ab", "ba", "a", "b", "abab", "c")


@st.composite
def _rule_and_payload(draw):
    """A rule of 1-4 payload options over a small alphabet, and a payload of
    its pieces, so that contents occur many times and decoys are common."""
    options = []
    for _ in range(draw(st.integers(1, 4))):
        relative = ", relative" if draw(st.integers(0, 2)) else ""
        if draw(st.integers(0, 5)) == 0:
            op, value, offset = draw(st.sampled_from("<>=")), draw(st.sampled_from((97, 98))), draw(st.integers(-1, 3))
            options.append(f"byte_test: 1,{op},{value},{offset}{relative};")
            continue
        pattern = draw(st.sampled_from(_PIECES))
        mods = relative
        if draw(st.integers(0, 2)):
            mods += f", depth {len(pattern) + draw(st.integers(0, 3))}"
        if draw(st.integers(0, 3)) == 0:
            mods += f", offset {draw(st.integers(0, 3))}"
        options.append(f'content:"{pattern}"{mods};')
    payload = "".join(draw(st.lists(st.sampled_from(_PIECES + ("x",)), min_size=2, max_size=16))).encode()
    return f"alert tcp any any -> any any ({' '.join(options)} sid:1;)", payload


@given(_rule_and_payload())
def test_phase_two_matches_the_reference_over_every_choice_of_positions(case):
    line, payload = case
    rule = parse_rule(line)
    assert evaluate_rule(rule, make_context(TCP_TUPLE, payload)) == reference_match(rule, payload)


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
    ctx_to_client = make_context(TCP_TUPLE, b"x", flow=flow, direction=flipped(fwd))
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


def test_two_phase_equivalence_other_proto(corpus_text, kernel):
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


def test_prefilter_no_false_negatives_random(corpus_ruleset, kernel):
    compiled = compile_ruleset(corpus_ruleset)
    from conftest import random_context

    rng = random.Random(4242)
    for _ in range(400):
        ctx = random_context(rng, compiled)
        assert brute_force_matches(compiled, ctx) <= prefilter(compiled, ctx)


def test_two_phase_equivalence_small(corpus_ruleset, kernel):
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


def make_worker(compiled, inline=False, useless=False):
    pool = PacketPool(capacity=72)
    tx = deque()
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


def test_connection_opened_after_the_table_fills_keeps_its_flow():
    """A full table evicts its least recently seen flow for a new one, so a
    connection opened after it fills is tracked and raises its
    ``flow: established`` rule; a connection that keeps sending between the
    new tuples keeps its flow throughout."""
    compiled = compiled_of(
        'alert tcp any any -> any any (content:"attack"; sid:1;)',
        'alert tcp any any -> any any (flow: established; content:"attack"; sid:2;)',
    )
    worker, pool, _, _ = make_worker(compiled)
    worker.flow_table = FlowTable(max_flows=2)
    now = itertools.count()
    seq = itertools.count(1, 6)

    def handshake(sport):
        for kw in (dict(flags=TCP_SYN, seq=0, sport=sport),
                   dict(flags=TCP_SYN | TCP_ACK, seq=0, src="10.0.0.2", dst="10.0.0.1", sport=443, dport=sport),
                   dict(seq=1, sport=sport)):
            yield worker.process_packet(ingest(pool, payload=b"", **kw), next(now))[1]

    def send(sport):
        return sorted(a.sid for a in worker.process_packet(ingest(pool, sport=sport, seq=next(seq)), next(now))[1])

    list(handshake(1000))
    assert send(1000) == [1, 2]
    worker.process_packet(ingest(pool, payload=b"x", sport=2000), next(now))  # the table is full
    kept = [send(1000)]
    for alerts in handshake(3000):  # the new connection evicts port 2000's flow, seen least recently
        assert alerts == []
        kept.append(send(1000))
    assert send(3000) == [1, 2]
    assert kept == [[1, 2]] * 4
    table = worker.flow_table
    assert sorted(f.key.src_port for f in table) == [1000, 3000]
    assert (table.created_total, table.evicted_total) == (3, 1)
    assert table.footprint_bytes == sum(f.footprint_bytes for f in table)
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


# --- descriptors from a hostile acquirer ---------------------------------

SECRET_RULE = 'alert tcp any any -> any any (msg:"secret"; content:"SECRET"; sid:9;)'

# each forgery of a good descriptor, as a hostile acquisition side could hand it over
FORGERIES = {
    "offset back one slot": lambda d: d._replace(payload_offset=d.payload_offset - packet.SLOT_SIZE),
    "slot past the pool": lambda d: d._replace(slot=99),
    "payload past the frame": lambda d: d._replace(payload_len=d.frame_len + packet.SLOT_SIZE),
    "proto not a member": lambda d: d._replace(tuple=d.tuple._replace(proto=99)),
    "frame past its slot": lambda d: d._replace(frame_len=packet.SLOT_SIZE + 1),
    "negative slot": lambda d: d._replace(slot=-1),
}


def _guarded_worker(inline=False, useless=False):
    """A worker over the SECRET rule whose 72-slot pool records every slot released."""
    worker, pool, tx, sink = make_worker(compiled_of(SECRET_RULE), inline=inline, useless=useless)
    released = []
    release = pool.release
    pool.release = lambda slot: released.append(slot) or release(slot)
    return worker, pool, tx, sink, released


# forgeries that name no slot inside the pool, or a frame longer than a slot
STAGE_ONE = {"slot past the pool", "frame past its slot", "negative slot"}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_a_forged_descriptor_is_dropped_unread(forgery):
    """Slot 0 and slot 2 hold another flow's ``SECRET``, and the good
    descriptor in slot 1 holds none. Each forgery of the good descriptor
    points its read outside its own slot, or names no protocol: the worker
    reads nothing, raises nothing, alerts nothing and counts the descriptor
    as rejected. A forgery that names no slot inside the pool leaves the
    pool alone, and the good descriptor still analyses; any other names
    slot 1, and the worker releases it."""
    worker, pool, tx, sink, released = _guarded_worker()
    ingest(pool, payload=b"SECRET" * 4, sport=7)
    good = ingest(pool, payload=b"nothing here", sport=1000)
    ingest(pool, payload=b"SECRET" * 4, sport=7)
    assert good.slot == 1
    verdict, alerts = worker.process_packet(FORGERIES[forgery](good), 5)
    assert alerts == [] and sink.alerts == []
    assert worker.stats.analyzed == 0 and len(worker.flow_table) == 0
    assert (verdict, worker.stats.rejected) == (detect.REJECT, 1)
    if forgery not in STAGE_ONE:
        assert released == [good.slot] and pool.in_use_count() == 2
        return
    assert released == [] and pool.in_use_count() == 3
    verdict, alerts = worker.process_packet(good, 6)  # the good one, untouched, still analyses
    assert (verdict, alerts, released) == ("allow", [], [good.slot])


@pytest.mark.parametrize("forgery", sorted(STAGE_ONE))
def test_useless_mode_checks_the_slot_before_forwarding(forgery):
    """Useless mode forwards every descriptor, so it checks the slot and the
    frame length first: a forged one is neither forwarded nor released."""
    worker, pool, tx, _, released = _guarded_worker(inline=True, useless=True)
    good = ingest(pool, payload=b"x")
    assert worker.process_packet(FORGERIES[forgery](good), 0) == (detect.REJECT, [])
    assert len(tx) == 0 and released == []
    assert (worker.stats.analyzed, worker.stats.rejected) == (0, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([None, None, *sorted(FORGERIES)]),
                          st.sampled_from([b"", b"hello", b"xSECRETx", b"SECRET" * 50]),
                          st.integers(1000, 1003)),
                min_size=1, max_size=40))
def test_a_hostile_acquirer_changes_nothing_for_the_good_descriptors(steps):
    """Forged and good descriptors mixed: nothing raises, no forged one is
    analysed, a slot is released for each good descriptor and each forgery
    that names a slot inside the pool, and the good descriptors raise
    exactly the alerts they raise with no forgery among them."""
    worker, pool, _, _, released = _guarded_worker()
    clean, clean_pool, _, _, _ = _guarded_worker()
    slots, good_sids, clean_sids = [], [], []
    for now, (forgery, payload, sport) in enumerate(steps):
        desc = ingest(pool, payload=payload, sport=sport, seq=1 + now * 300)
        if forgery is not None:
            assert worker.process_packet(FORGERIES[forgery](desc), now) == (detect.REJECT, [])
            if forgery not in STAGE_ONE:
                slots.append(desc.slot)
            continue
        slots.append(desc.slot)
        good_sids.append([a.sid for a in worker.process_packet(desc, now)[1]])
        twin = ingest(clean_pool, payload=payload, sport=sport, seq=1 + now * 300)
        clean_sids.append([a.sid for a in clean.process_packet(twin, now)[1]])
    forged = sum(f is not None for f, _, _ in steps)
    assert (worker.stats.analyzed, worker.stats.rejected) == (len(steps) - forged, forged)
    assert released == slots
    assert good_sids == clean_sids


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


_ENDS = {"c": ("10.0.0.1", "10.0.0.2", 1000, 80), "s": ("10.0.0.2", "10.0.0.1", 80, 1000)}  # client, server
_SYNACK, _FIN = TCP_SYN | TCP_ACK, TCP_FIN | TCP_ACK
_HANDSHAKE = [("c", TCP_SYN), ("s", _SYNACK), ("c", TCP_ACK)]  # each side's stream starts at 101
_C_FIN, _S_FIN, _S_RST = ("c", _FIN, 101, b""), ("s", _FIN, 101, b""), ("s", TCP_RST, 101, b"")


@pytest.mark.parametrize("steps, want", [
    pytest.param(_HANDSHAKE, ("ESTABLISHED", True, "c", False), id="handshake"),
    pytest.param(_HANDSHAKE + [_C_FIN, _S_FIN], ("CLOSED", True, "c", False), id="fin-both"),
    pytest.param(_HANDSHAKE + [_C_FIN, _S_RST], ("CLOSED", True, "c", False), id="rst-closes-like-fin"),
    pytest.param(_HANDSHAKE + [_S_RST], ("CLOSED", True, "c", False), id="rst-one-side"),
    pytest.param(_HANDSHAKE + [_C_FIN, ("c", TCP_RST, 102, b"")], ("CLOSED", True, "c", False),
                 id="rst-past-its-own-fin"),
    pytest.param(_HANDSHAKE + [_C_FIN, _C_FIN], ("CLOSING", True, "c", False), id="second-fin-same-side"),
    pytest.param([("c", TCP_SYN), ("s", _SYNACK), _S_FIN, ("c", TCP_ACK)], ("CLOSING", False, "c", False),
                 id="fin-before-final-ack"),
    pytest.param(_HANDSHAKE + [("c", _FIN, 3_000_000_000, b"")], ("ESTABLISHED", True, "c", False),
                 id="fin-off-window"),
    pytest.param(_HANDSHAKE + [("s", TCP_RST, 102, b"")], ("ESTABLISHED", True, "c", False),
                 id="rst-off-sequence"),
    pytest.param(_HANDSHAKE + [_S_RST, ("c", TCP_SYN, 5000, b"")], ("SYN_SEEN", False, "c", False),
                 id="syn-reopens-after-one-sided-rst"),
    pytest.param([("c", TCP_SYN, 99, b""), ("c", TCP_ACK, 300, b"DATA")], ("ESTABLISHED", True, "c", False),
                 id="syn-anchors-the-stream"),
    pytest.param([("c", TCP_SYN | TCP_FIN, 99, b""), ("c", TCP_ACK, 300, b"DATA")], ("NEW", False, "c", True),
                 id="syn-fin-neither-moves-nor-anchors"),
    pytest.param([("s", TCP_ACK), ("c", TCP_ACK)], ("ESTABLISHED", True, "s", False), id="mid-stream-both-ways"),
    pytest.param([("c", TCP_ACK), ("c", TCP_ACK)], ("NEW", False, "c", False), id="mid-stream-one-way"),
    pytest.param([("s", TCP_ACK), ("c", TCP_SYN)], ("SYN_SEEN", False, "c", False), id="syn-names-the-initiator"),
    pytest.param([("s", _SYNACK), ("c", TCP_ACK)], ("ESTABLISHED", True, "s", False), id="syn-ack-first"),
    pytest.param([("c", None), ("c", None)], ("NEW", False, "c", False), id="udp-one-way"),
    pytest.param([("c", None), ("s", None)], ("ESTABLISHED", True, "c", False), id="udp-both-ways"),
    pytest.param([("s", None), ("c", None)], ("ESTABLISHED", True, "s", False), id="udp-reply-first"),
])
def test_flow_state_after_a_flag_sequence(steps, want):
    """A flow's state, whether it was ever established, and which side
    (client or server) it takes for the initiator, after each sequence of
    packets through a worker. A step is a side and TCP flags (None: a UDP
    datagram), then optionally a sequence number and a payload (by default
    100 and none). The last field is whether a payload reached the stream: a
    SYN anchors its side's stream one past its sequence number, so data far
    past it waits in the buffer. So do a FIN and a RST: after a handshake at
    the default sequence numbers each side's next byte is 101, where a RST
    must sit (102 once its side has sent a FIN) and from which a FIN's window
    starts."""
    compiled = compiled_of('alert tcp any any -> any any (flow: only_stream; content:"DATA"; sid:1;)')
    worker, pool, _, sink = make_worker(compiled)
    for now, (side, flags, *segment) in enumerate(steps):
        src, dst, sport, dport = _ENDS[side]
        if flags is None:
            desc = decode(build_ipv4_udp_frame(parse_ip(src), sport, parse_ip(dst), dport, b"x"), 0, pool)
        else:
            seq, payload = segment or (100, b"")
            desc = ingest(pool, payload=payload, sport=sport, dport=dport, flags=flags, seq=seq, src=src, dst=dst)
        worker.process_packet(desc, now)
    (flow,) = worker.flow_table
    initiator = flow.key if flow.initiator_direction is Direction.FORWARD else reverse(flow.key)
    got = (flow.state.name, flow.saw_established, "c" if initiator.src_port == 1000 else "s", bool(sink.alerts))
    assert got == want


@pytest.mark.parametrize("syn_data", [b"", b"X"])
def test_syn_data_starts_one_past_its_sequence_number(syn_data):
    """A SYN takes one sequence number, so a byte it carries sits at seq + 1
    and the next segment follows it; the stream has no gap."""
    compiled = compiled_of('alert tcp any any -> any any (flow: established, only_stream; content:"EVIL"; sid:7;)')
    worker, pool, _, _ = make_worker(compiled)
    server = dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1000)
    worker.process_packet(ingest(pool, payload=syn_data, flags=TCP_SYN, seq=100, sport=1000, dport=80), 0)
    worker.process_packet(ingest(pool, payload=b"", flags=TCP_SYN | TCP_ACK, seq=500, **server), 1)
    data_seq = 101 + len(syn_data)
    worker.process_packet(ingest(pool, payload=b"", flags=TCP_ACK, seq=data_seq, sport=1000, dport=80), 2)
    _, alerts = worker.process_packet(
        ingest(pool, payload=b"GET /EVIL", flags=TCP_ACK, seq=data_seq, sport=1000, dport=80), 3)
    assert [a.sid for a in alerts] == [7]
    key, direction = packet.canonical_key(FiveTuple(Proto.TCP, "10.0.0.1", 1000, "10.0.0.2", 80))
    flow = worker.flow_table.lookup_or_create(key, direction, 3)
    assert flow.side(direction).buf.pending_bytes == 0


_CLIENT, _SERVER = dict(sport=1000, dport=80), dict(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1000)


def _sids_of(worker, pool, steps, now=0) -> list[int]:
    """The sids a worker raises over ``steps`` of (ends, flags, seq, payload), one per microsecond."""
    sids = []
    for i, (ends, flags, seq, payload) in enumerate(steps):
        desc = ingest(pool, payload=payload, flags=flags, seq=seq, **ends)
        sids += [a.sid for a in worker.process_packet(desc, now + i)[1]]
    return sids


def test_syn_on_a_closed_flow_opens_a_new_connection():
    """A handshake, ``GET /EVIL`` and FIN both ways alert. The same exchange
    on the same 5-tuple a second later, with new initial sequence numbers,
    alerts again: its SYN replaces the closed flow, so the new stream is not
    reassembled against the old connection's sequence numbers."""
    compiled = compiled_of('alert tcp any any -> any any (flow: established, only_stream; content:"EVIL"; sid:7;)')
    worker, pool, _, _ = make_worker(compiled)
    table = worker.flow_table

    def connection(isn_c, isn_s):
        return [(_CLIENT, TCP_SYN, isn_c, b""), (_SERVER, _SYNACK, isn_s, b""), (_CLIENT, TCP_ACK, isn_c + 1, b""),
                (_CLIENT, TCP_ACK, isn_c + 1, b"GET /EVIL"), (_CLIENT, _FIN, isn_c + 10, b""),
                (_SERVER, _FIN, isn_s + 1, b"")]

    assert _sids_of(worker, pool, connection(1000, 5000)) == [7]
    (closed,) = table
    assert closed.state is FlowState.CLOSED
    worker.process_packet(ingest(pool, payload=b"", flags=TCP_SYN | TCP_FIN, seq=90_000, **_CLIENT), 10)
    assert list(table) == [closed]  # a nonsensical SYN+FIN opens nothing
    assert _sids_of(worker, pool, connection(90_000, 70_000), now=1_000_000) == [7]
    (reopened,) = table
    assert reopened is not closed and reopened.state is FlowState.CLOSED
    assert (table.created_total, table.evicted_total) == (2, 1)
    assert table.footprint_bytes == reopened.footprint_bytes
    assert pool.in_use_count() == 0


def test_a_reset_closes_the_flow_so_its_tuple_can_reopen():
    """A handshake, ``GET /EVIL`` and a server RST at its next sequence
    number alert, and the RST closes the flow for both directions. The same
    exchange a second later, with new initial sequence numbers, alerts
    again: its SYN replaces the closed flow."""
    compiled = compiled_of('alert tcp any any -> any any (flow: established, only_stream; content:"EVIL"; sid:7;)')
    worker, pool, _, _ = make_worker(compiled)

    def connection(isn_c, isn_s):
        return [(_CLIENT, TCP_SYN, isn_c, b""), (_SERVER, _SYNACK, isn_s, b""), (_CLIENT, TCP_ACK, isn_c + 1, b""),
                (_CLIENT, TCP_ACK, isn_c + 1, b"GET /EVIL"), (_SERVER, TCP_RST, isn_s + 1, b"")]

    assert _sids_of(worker, pool, connection(1000, 5000)) == [7]
    assert [flow.state for flow in worker.flow_table] == [FlowState.CLOSED]
    assert _sids_of(worker, pool, connection(90_000, 70_000), now=1_000_000) == [7]
    assert (worker.flow_table.created_total, worker.flow_table.evicted_total) == (2, 1)


@pytest.mark.parametrize("flags", [_FIN, TCP_RST], ids=["fin", "rst"])
def test_a_spoofed_teardown_does_not_blind_the_stream(flags):
    """A handshake and ``GET /``, then a FIN (or a RST) each way at sequence
    numbers far outside either stream, then a SYN with a fresh initial
    sequence number. The teardown is rejected, so the SYN opens nothing, and
    the live connection's ``GET /EVILPATTERN`` at its own next sequence
    number alerts."""
    compiled = compiled_of(
        'alert tcp any any -> any any (flow: established, only_stream; content:"EVILPATTERN"; sid:7;)')
    worker, pool, _, _ = make_worker(compiled)
    steps = [(_CLIENT, TCP_SYN, 100, b""), (_SERVER, _SYNACK, 500, b""), (_CLIENT, TCP_ACK, 101, b""),
             (_CLIENT, TCP_ACK, 101, b"GET /"), (_CLIENT, flags, 3_000_000_000, b""),
             (_SERVER, flags, 3_100_000_000, b""), (_CLIENT, TCP_SYN, 4_000_000, b""),
             (_CLIENT, TCP_ACK, 106, b"GET /EVILPATTERN")]
    assert _sids_of(worker, pool, steps) == [7]
    assert [flow.state for flow in worker.flow_table] == [FlowState.ESTABLISHED]


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


def frame_carrying(t: FiveTuple, payload: bytes = b"x", seq: int = 0) -> bytes:
    if t.proto is Proto.TCP:
        return build_ipv4_tcp_frame(t.src_ip, t.src_port, t.dst_ip, t.dst_port, flags=TCP_ACK, seq=seq,
                                    payload=payload)
    if t.proto is Proto.UDP:
        return build_ipv4_udp_frame(t.src_ip, t.src_port, t.dst_ip, t.dst_port, payload=payload)
    if t.proto is Proto.ICMP:
        return build_ipv4_icmp_frame(t.src_ip, t.dst_ip, payload=payload)
    return build_ipv4_frame(t.src_ip, t.dst_ip, 47, payload)  # GRE: no transport header decode reads


def test_alert_line_of_decoded_tuple_equals_reference(kernel):
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


def test_admitted_matches_header_oracle_and_brute_force(corpus_text, kernel):
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


def test_prefilter_equals_reference_candidates(corpus_text, kernel):
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
        assert not eval_single(line, make_context(reverse(crossed), b"x"))
        forward = FiveTuple(Proto.TCP, "10.1.1.1", 80, "1.2.3.4", 5555)
        assert eval_single(line, make_context(forward, b"x"))
        assert eval_single(line, make_context(reverse(forward), b"x"))


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


# --- what a flow direction decides once ----------------------------------------

RECORD_ADDRS = ["10.0.0.5", "10.1.2.3", "192.168.1.7", "192.168.1.9", "8.8.8.8"]
RECORD_PORTS = [80, 8080, 1337, 6667, 443, 25, 53, 40000]
RULE_ADDRS = ["any", "10.0.0.0/8", "[10.1.0.0/16, 192.168.1.7]", "10.0.0.5", "192.168.1.0/24"]
RULE_PORTS = ["any", "80", "[80, 8080]", "[1337, 6667]", "443", "[25, 443]", "53"]
RULE_OPTIONS = [
    "", "flow: established; ", "byte_test: 1,>,10,0; ", "flow: only_stream; byte_test: 1,>,3,0; ",
    'content:"MAIL"; ', 'content:"EVILPAT"; ', 'flow: only_stream; content:"EVILPAT"; ',
    'content:"|18 03 00|", depth 3; ',
]
RECORD_PROTOS = [Proto.TCP, Proto.TCP, Proto.UDP, Proto.ICMP, Proto.OTHER]

header_rule_lines = st.lists(
    st.tuples(
        st.sampled_from(["tcp", "tcp", "udp", "icmp", "ip"]), st.sampled_from(RULE_ADDRS),
        st.sampled_from(RULE_PORTS), st.sampled_from(["->", "<>"]), st.sampled_from(RULE_ADDRS),
        st.sampled_from(RULE_PORTS), st.sampled_from(RULE_OPTIONS),
    ).map(lambda h: f"alert {h[0]} {h[1]} {h[2]} {h[3]} {h[4]} {h[5]} ({h[6]}sid:SID;)"),
    min_size=1, max_size=8,
)


@st.composite
def record_tuples(draw):
    proto = draw(st.sampled_from(RECORD_PROTOS))
    ports = st.sampled_from(RECORD_PORTS) if proto in (Proto.TCP, Proto.UDP) else st.just(0)
    addrs = st.sampled_from(RECORD_ADDRS)
    return FiveTuple(proto, parse_ip(draw(addrs)), draw(ports), parse_ip(draw(addrs)), draw(ports))


def drive_and_check(compiled, packets, max_flows):
    """Run ``(tuple, payload, seq)`` packets through one worker and check that
    each packet's candidates, as a set, equal ``admitted`` over fast-pattern
    hits recomputed from the context's buffers, and that each alert line
    equals the reference formatter's; returns the alerts."""
    worker, pool, _, sink = make_worker(compiled)
    worker.flow_table = FlowTable(max_flows=max_flows)
    seen = []

    def recording(compiled_, ctx):
        result = prefilter(compiled_, ctx)
        seen.append((ctx, result))
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(detect, "prefilter", recording)
        for now_us, (t, payload, seq) in enumerate(packets):
            worker.process_packet(decode(frame_carrying(t, payload, seq), now_us, pool), now_us)
    assert len(seen) == len(packets) and pool.in_use_count() == 0
    for ctx, result in seen:
        t = ctx.tuple
        assert ctx.side is ctx.flow.side(ctx.direction)
        hits = set()
        for sid, rule in compiled.rules.items():
            if rule.fast_pattern is None or rule.proto not in ("ip", t.proto.name.lower()):
                continue
            buf = (ctx.stream_bytes or b"") if rule.only_stream else ctx.payload
            if rule.fast_pattern in buf:
                hits.add(sid)
        assert set(result) == compiled.admitted(t, hits)
    assert len(sink.lines) == len(sink.alerts) == worker.stats.alerts
    for alert, line in zip(sink.alerts, sink.lines):
        assert line == _ref_format_alert_fast(alert)
    return sink.alerts


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=header_rule_lines,
    with_corpus=st.booleans(),
    tuples=st.lists(record_tuples(), min_size=1, max_size=4),
    steps=st.lists(
        st.tuples(st.integers(0, 3), st.booleans(), st.binary(max_size=24), st.integers(0, 99), st.integers(0, 3)),
        min_size=1, max_size=30,
    ),
    max_flows=st.sampled_from([1, 2, 1024]),
)
def test_per_direction_records_give_the_candidates_and_lines_of_a_fresh_check(
    corpus_text, kernel, lines, with_corpus, tuples, steps, max_flows
):
    """Both directions of random tuples, over random headers with and
    without the corpus, with planted fast patterns and segments in and out
    of order; a table of one flow evicts on every new tuple."""
    text = "\n".join(line.replace("SID", str(940_001 + i)) for i, line in enumerate(lines))
    compiled = compile_ruleset(load_ruleset((corpus_text + "\n" if with_corpus else "") + text))
    patterns = [None] + sorted({r.fast_pattern for r in compiled.rules.values() if r.fast_pattern is not None})
    next_seq = {}
    packets = []
    for index, backwards, noise, planted, gap in steps:
        t = tuples[index % len(tuples)]
        t = reverse(t) if backwards else t
        pattern = patterns[planted % len(patterns)]
        payload = noise if pattern is None else noise[: len(noise) // 2] + pattern + noise[len(noise) // 2 :]
        seq = next_seq.get(t, 1) + (5 if gap == 3 else 0)  # a gap leaves the segment buffered
        next_seq[t] = seq + len(payload)
        packets.append((t, payload, seq))
    drive_and_check(compiled, packets, max_flows)


def test_evicted_flow_returning_the_other_way_round_starts_fresh_records(kernel):
    """A one-flow table evicts a flow; its tuple comes back with the other
    orientation first, and that direction's candidates and endpoint text are
    its own, not those of the evicted flow's first direction."""
    compiled = compiled_of(
        "alert tcp any 80 -> any any (sid:1;)",
        'alert tcp any any <> any any (content:"hit"; sid:2;)',
    )
    a = FiveTuple(Proto.TCP, parse_ip("10.0.0.1"), 80, parse_ip("10.0.0.2"), 5000)
    b = FiveTuple(Proto.TCP, parse_ip("10.0.0.3"), 80, parse_ip("10.0.0.4"), 6000)
    packets = [(a, b"hit", 1), (b, b"hit", 1), (reverse(a), b"hit", 1), (a, b"hit", 4), (reverse(a), b"", 4)]
    alerts = drive_and_check(compiled, packets, max_flows=1)
    # reverse(a) is not from port 80, so sid 1 never fires for it, though a's direction admitted it
    assert [(alert.sid, alert.tuple) for alert in alerts] == [
        (1, a), (2, a), (1, b), (2, b), (2, reverse(a)), (1, a), (2, a),
    ]


@pytest.mark.parametrize("alerting", [True, False], ids=["corpus", "no-alert"])
def test_each_direction_checks_headers_once_and_builds_endpoints_only_if_it_alerts(monkeypatch, alerting):
    """Work counts over a sim run of 800 frames on 16 synth connections,
    both directions of each: one header check with no hits per direction,
    and one endpoint text per direction that alerts, none on a run without
    an alert."""
    admitted, endpoint_text, process = CompiledRuleSet.admitted, detect.endpoint_text, AnalysisWorker.process_packet
    no_hit_checks, built, tuples = Counter(), Counter(), set()

    def counting_admitted(self, t, hits):
        no_hit_checks[t] += not hits
        return admitted(self, t, hits)

    def counting_endpoint_text(t):
        built[t] += 1
        return endpoint_text(t)

    def recording_process(self, desc, now_us):
        tuples.add(desc.tuple)
        return process(self, desc, now_us)

    monkeypatch.setattr(CompiledRuleSet, "admitted", counting_admitted)
    monkeypatch.setattr(detect, "endpoint_text", counting_endpoint_text)
    monkeypatch.setattr(AnalysisWorker, "process_packet", recording_process)
    rules = dict(rules_path=str(CORPUS_PATH)) if alerting else dict(
        rules_text='alert tcp any any -> any any (content:"NEVER-SENT"; sid:1;)\nalert tcp any any -> any 9999 (sid:2;)'
    )
    sink = ListAlertSink()
    wl = WorkloadSpec(kind="synth", packet_size=128, n_flows=16, packet_count=800, seed=4)
    report = run_experiment(wl, EngineConfig(n_workers=2, clock_mode="sim", **rules), alert_sink=sink)
    assert report.totals.analyzed == 800 and len(tuples) == 32
    assert +no_hit_checks == Counter(tuples)
    alerted = {alert.tuple for alert in sink.alerts}
    assert built == Counter(alerted)
    if alerting:
        assert 0 < len(alerted) < len(tuples)
    else:
        assert report.totals.alerts == 0 and not built
