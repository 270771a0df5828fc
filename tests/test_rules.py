"""Rule parsing, ruleset loading, and compilation."""

import dataclasses
import hashlib
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import header_matches

from ringids.packet import FiveTuple, Proto, format_ip, parse_ip
from ringids.rules import (
    ADDR_ANY,
    PORT_ANY,
    AddressSpec,
    ByteTest,
    Content,
    FlowOpt,
    ParseError,
    PortSpec,
    compile_ruleset,
    load_ruleset,
    load_ruleset_file,
    parse_rule,
)

CORPUS = Path(__file__).parent / "data" / "corpus.rules"


# --- rule text back from a parsed rule: the parser's round-trip oracle -------


def _quote(text: str) -> str:
    """Inverse of the parser's unquote: backslash-escape ``\\`` and ``"``."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def encode_pattern(data: bytes) -> str:
    """Inverse of ``decode_pattern``, hex-escaping anything non-printable."""
    out = []
    hex_run: list[str] = []

    def flush():
        if hex_run:
            out.append("|" + " ".join(hex_run) + "|")
            hex_run.clear()

    for b in data:
        if 0x20 <= b < 0x7F and chr(b) not in '"|;\\':
            flush()
            out.append(chr(b))
        else:
            hex_run.append(f"{b:02X}")
    flush()
    return "".join(out)


def _render_ports(spec: PortSpec) -> str:
    if spec.any_port:
        return "any"
    ports = sorted(spec.ports)
    if len(ports) == 1:
        return str(ports[0])
    return "[" + ", ".join(str(p) for p in ports) + "]"


def _render_addr(spec: AddressSpec) -> str:
    if spec.var is not None:
        return f"${spec.var}"
    if spec.any_addr:
        return "any"
    parts = [format_ip(net) if prefix == 32 else f"{format_ip(net)}/{prefix}" for net, prefix in spec.nets]
    return parts[0] if len(parts) == 1 else "[" + ", ".join(parts) + "]"


def _render_flow(flow: FlowOpt) -> str:
    names = ("to_client", "to_server", "established", "only_stream")
    return ", ".join(name for name in names if getattr(flow, name))


def format_rule(rule) -> str:
    """Render a rule back to canonical one-line text (parse round-trips)."""
    opts = []
    if rule.msg:
        opts.append(f"msg: {_quote(rule.msg)}")
    if rule.flow is not None:
        opts.append(f"flow: {_render_flow(rule.flow)}")
    for opt in rule.options:
        if isinstance(opt, Content):
            mods = []
            if opt.depth is not None:
                mods.append(f"depth {opt.depth}")
            if opt.offset:
                mods.append(f"offset {opt.offset}")
            if opt.relative:
                mods.append("relative")
            suffix = (", " + ", ".join(mods)) if mods else ""
            opts.append(f'content: "{encode_pattern(opt.pattern)}"{suffix}')
        else:
            rel = ",relative" if opt.relative else ""
            opts.append(f"byte_test: {opt.nbytes},{opt.op},{opt.value},{opt.offset}{rel}")
    if rule.metadata:
        opts.append(f"metadata: {rule.metadata}")
    if rule.service:
        opts.append(f"service: {rule.service}")
    for ref in rule.references:
        opts.append(f"reference: {ref}")
    if rule.classtype:
        opts.append(f"classtype: {rule.classtype}")
    for key, value in rule.opaque:
        opts.append(f"{key}: {value}" if value else key)
    opts.append(f"sid: {rule.sid}")
    opts.append(f"rev: {rule.rev}")
    body = "; ".join(opts)
    return (
        f"{rule.action} {rule.proto} {_render_addr(rule.src)} {_render_ports(rule.src_ports)} "
        f"{rule.direction} {_render_addr(rule.dst)} {_render_ports(rule.dst_ports)} ({body};)"
    )

HEARTBLEED = (
    'alert tcp $HOME_NET [21, 25, 443, 465, 636, 992, 993, 995, 2484] -> $EXTERNAL_NET any '
    '(msg: "OpenSSL SSLv3 large heartbeat response - possible ssl heartbleed attempt"; '
    'flow: to_client, established, only_stream; content: "|18 03 00|", depth 3; '
    'byte_test: 2,>,128,0,relative; metadata: policy balanced-ips drop, policy security-ips drop, '
    'ruleset community; service: ssl; reference: cve,2014-0160; classtype: attempted-recon; '
    'sid: 30514; rev: 9; )'
)


def test_heartbeat_rule_full_fidelity():
    rule = parse_rule(HEARTBLEED)
    assert rule.action == "alert"
    assert rule.proto == "tcp"
    assert rule.src.var == "HOME_NET"
    assert rule.src_ports.ports == frozenset({21, 25, 443, 465, 636, 992, 993, 995, 2484})
    assert 443 in rule.src_ports.ports
    assert rule.direction == "->"
    assert rule.dst.var == "EXTERNAL_NET"
    assert rule.dst_ports.any_port
    assert rule.sid == 30514
    assert rule.rev == 9
    assert rule.classtype == "attempted-recon"
    assert rule.service == "ssl"
    assert rule.references == ("cve,2014-0160",)
    assert rule.flow is not None
    assert rule.flow.to_client and rule.flow.established and rule.flow.only_stream
    assert not rule.flow.to_server
    assert rule.options == (
        Content(pattern=b"\x18\x03\x00", depth=3, offset=0, relative=False),
        ByteTest(nbytes=2, op=">", value=128, offset=0, relative=True),
    )
    assert rule.blocks_in_inline  # metadata carries policy ... drop
    assert rule.msg == "OpenSSL SSLv3 large heartbeat response - possible ssl heartbleed attempt"


def test_minimal_rule():
    rule = parse_rule('alert tcp any any -> any any (msg:"x"; content:"abc"; sid:1;)')
    assert rule.sid == 1
    assert rule.contents[0].pattern == b"abc"
    assert rule.src.any_addr and rule.dst.any_addr


def test_missing_sid_is_error():
    with pytest.raises(ParseError):
        parse_rule('alert tcp any any -> any any (msg:"x";)')


@pytest.mark.parametrize(
    "line",
    [
        "alert tcp any any -> any any",  # no options
        'alert tcp any any => any any (sid:1;)',  # bad arrow
        'alert tcp any -> any any (sid:2;)',  # missing field
        'log tcp any any -> any any (sid:3;)',  # unsupported action
        'alert tcp any any -> any any (msg:"unterminated; sid:4;)',
        'alert tcp any any -> any any (content:!"neg"; sid:5;)',
        'alert tcp any any -> any any (content:"€"; sid:6;)',  # not a byte
        'alert tcp any any -> any any (content:"|41"; sid:7;)',  # unterminated hex span
        'alert tcp any any -> any any (content:"|4G|"; sid:8;)',  # not a hex byte
        'alert tcp [1.2.3.4 any -> any any (sid:9;)',  # unclosed list
        'alert tcp any any -> any any (sid:10; msg:"x")',  # last option has no ';'
        'alert tcp 10.0.0.0/33 any -> any any (sid:11;)',  # prefix past 32
        'alert tcp any 70000 -> any any (sid:12;)',  # port past 65535
        'alert tcp any \u00b2 -> any any (sid:13;)',  # superscript two: a digit int() rejects
        'alert tcp 10.0.0.0/\u00b2 any -> any any (sid:14;)',
        'alert tcp any any -> any any (content:"abc", depth \u00b2; sid:15;)',
        'alert tcp any any -> any any (content:"abc"; depth: \u00b2; sid:16;)',
        'alert tcp any \u0661 -> any any (sid:17;)',  # Arabic-Indic one: a digit, but not ASCII
        'alert tcp any any -> any any (content:"|f|"; sid:18;)',  # odd hex digit count
        'alert tcp any any -> any any (content:"|0d0|"; sid:19;)',
        'alert tcp any any -> any any (content:"|0 d|"; sid:20;)',  # space inside a byte
        'alert tcp any any -> any any (content:"|+0x_4_1 -0|"; sid:21;)',  # int() spellings
        'alert tcp any any -> any any (content:"|0x41|"; sid:22;)',
        'alert tcp any any -> any any (sid: -5;)',  # sid and rev are unsigned decimals
        'alert tcp any any -> any any (sid: +5;)',
        'alert tcp any any -> any any (sid: 1_0;)',
        'alert tcp any any -> any any (sid:23; rev: +1_0;)',
        'alert tcp any any -> any any (sid:24; rev: -1;)',
    ],
)
def test_malformed_rules_rejected(line):
    with pytest.raises(ParseError):
        parse_rule(line)


def test_parse_error_carries_position():
    try:
        parse_rule('alert tcp any any >> any any (sid:1;)')
    except ParseError as exc:
        assert exc.position > 0
    else:
        pytest.fail("expected ParseError")


@pytest.mark.parametrize(
    "line, position",
    [
        ('alert tcp 1.2.3.256 any -> any any (sid:1;)', 10),  # an octet past 255
        ('alert sctp any any -> any any (sid:2;)', 6),  # a protocol outside the subset
        ('alert tcp any any -> any any (msg:hello; sid:3;)', 30),  # msg not quoted
        ('alert tcp any any -> any any (content:""; sid:4;)', 30),
        ('alert tcp any any -> any any (byte_test:1,>; sid:5;)', 30),  # value and offset missing
        ('alert tcp any any -> any any (byte_test:1,>,x,0; sid:6;)', 30),
        ('alert tcp any any -> any any (msg:"m"; sid:x;)', 39),  # the keyword after `; `, not the space
    ],
)
def test_parse_error_points_at_its_field_or_option(line, position):
    with pytest.raises(ParseError) as info:
        parse_rule(line)
    assert info.value.position == position


@pytest.mark.parametrize(
    "option, warning",
    [
        ('content:"abc", nocase', "ignored content modifier 'nocase'"),
        ("byte_test:1,>,1,0,big", "ignored byte_test modifier 'big'"),
        ("flow:established,stateless", "ignored flow token 'stateless'"),
    ],
)
def test_ignored_modifier_is_a_warning(option, warning):
    rule = parse_rule(f"alert tcp any any -> any any ({option}; sid:1;)")
    assert rule.warnings == (warning,)


def test_hex_span_decode_and_mixed_text():
    rule = parse_rule('alert tcp any any -> any any (content:"GET |2f 41| HTTP"; sid:9;)')
    assert rule.contents[0].pattern == b"GET /A HTTP"


def test_hex_span_pairs_need_no_spaces():
    def pattern(content):
        return parse_rule(f'alert tcp any any -> any any (content:"{content}"; sid:9;)').contents[0].pattern

    assert pattern("|0d0a|") == pattern("|0d 0a|") == b"\r\n"
    assert pattern("| 0D0a\t41 |") == b"\r\nA"


def test_escaped_characters_in_content():
    rule = parse_rule(r'alert tcp any any -> any any (content:"a\;b\"c"; sid:9;)')
    assert rule.contents[0].pattern == b'a;b"c'


def test_follower_style_depth_offset():
    rule = parse_rule('alert tcp any any -> any any (content:"abc"; depth: 5; offset: 2; sid:3;)')
    c = rule.contents[0]
    assert (c.depth, c.offset) == (5, 2)


@pytest.mark.parametrize(
    "options",
    [
        'content:"abcdef", depth 3',
        'content:"abcdef"; depth:3',
        'content:"abcdef", depth 9; depth:5',
        'content:"abcdef"; offset:2; depth:0',
    ],
)
def test_depth_shorter_than_its_pattern_is_an_error_at_the_content(options):
    head = 'alert tcp any any -> any any (msg:"m"; content:"ab"; '
    with pytest.raises(ParseError, match="shorter than its 6-byte pattern") as info:
        parse_rule(f"{head}{options}; sid:7;)")
    assert info.value.position == head.rindex(";") + 2  # the content keyword, past the `; `


def test_depth_equal_to_its_pattern_parses():
    for options in ('content:"abcdef", depth 6', 'content:"abcdef"; depth:6'):
        rule = parse_rule(f"alert tcp any any -> any any ({options}; sid:7;)")
        assert rule.contents[0].depth == 6


def test_unknown_options_kept_opaque_with_warning():
    rule = parse_rule('alert tcp any any -> any any (content:"x"; pcre:"/foo/i"; nocase; sid:4;)')
    assert ("pcre", '"/foo/i"') in rule.opaque
    assert ("nocase", "") in rule.opaque
    assert rule.warnings


def test_cidr_and_literal_addresses():
    rule = parse_rule('alert tcp 10.1.0.0/16 80 -> 10.2.3.4 any (sid:6;)')
    assert rule.src.matches(parse_ip("10.1.200.7"))
    assert not rule.src.matches(parse_ip("10.2.0.1"))
    assert rule.dst.matches(parse_ip("10.2.3.4"))
    assert not rule.dst.matches(parse_ip("10.2.3.5"))


def test_byte_test_validation():
    with pytest.raises(ParseError):
        parse_rule('alert tcp any any -> any any (byte_test: 3,>,1,0; sid:7;)')
    with pytest.raises(ParseError):
        parse_rule('alert tcp any any -> any any (byte_test: 2,!,1,0; sid:8;)')


def test_load_ruleset_skips_comments_and_collects_errors():
    text = "\n".join(
        [
            "# a comment",
            "",
            'alert tcp any any -> any any (msg:"one"; content:"a"; sid:1;)',
            'alert tcp any any -> any any (msg:"broken";)',
            'alert udp any any -> any 53 (msg:"two"; sid:2;)',
            "   ",
            'alert tcp any any -> any any (msg:"three"; content:"c"; sid:3;)',
        ]
    )
    rs = load_ruleset(text)
    assert [r.sid for r in rs.rules] == [1, 2, 3]
    assert len(rs.errors) == 1 and rs.errors[0][0] == 4


def test_undecodable_byte_fails_only_its_rule(tmp_path):
    """The file loader turns a byte that is not UTF-8 into U+FFFD; that rule
    is one ParseError and the other rules still load."""
    path = tmp_path / "bad.rules"
    path.write_bytes(
        b'alert tcp any any -> any any (content:"a\xffb"; sid:1;)\n'
        b'alert tcp any any -> any any (content:"ok"; sid:2;)\n'
    )
    rs = load_ruleset_file(path)
    assert [r.sid for r in rs.rules] == [2]
    assert [lineno for lineno, _ in rs.errors] == [1]
    assert isinstance(rs.errors[0][1], ParseError)


def test_non_ascii_digit_fails_only_its_rule(tmp_path):
    path = tmp_path / "digits.rules"
    path.write_text(
        "alert tcp any \u00b2 -> any any (sid:1;)\n"
        'alert tcp any any -> any any (content:"ok"; sid:2;)\n',
        encoding="utf-8",
    )
    rs = load_ruleset_file(path)
    assert [r.sid for r in rs.rules] == [2]
    assert [lineno for lineno, _ in rs.errors] == [1]


def test_recorded_errors_hold_no_traceback():
    """A stored ParseError pins none of the loader's frames (or the rules text)."""
    rs = load_ruleset(CORPUS.read_text())
    assert rs.errors and all(exc.__traceback__ is None for _, exc in rs.errors)


# sha256 over each corpus rule's format_rule text and warnings, then each
# rejected line's number, message and column
CORPUS_PARSE_DIGEST = "5c61b2ba85686cab59c517dec50d4ab168482cc863678d94dd66dde4a68a080f"


def test_corpus_parse_matches_golden_digest():
    rs = load_ruleset(CORPUS.read_text())
    digest = hashlib.sha256()
    for rule in rs.rules:
        digest.update(repr((format_rule(rule), rule.warnings)).encode())
    for lineno, exc in rs.errors:
        digest.update(repr((lineno, exc.message, exc.position)).encode())
    assert len(rs.rules) == 108
    assert [lineno for lineno, _ in rs.errors] == [115, 116, 117, 118]
    assert digest.hexdigest() == CORPUS_PARSE_DIGEST


_PAD = 100_000
_HOSTILE = {
    "unterminated quote": 'alert tcp any any -> any any (msg:"' + "a" * _PAD + "; sid:1;)",
    "run of escapes": 'alert tcp any any -> any any (msg:"' + "\\" * _PAD + ";)",
    "10k options": "alert tcp any any -> any any (" + "nocase; " * 12_500 + ")",
    "run of spaces": "alert tcp any any -> any any (" + " " * _PAD + "x)",
    "unterminated hex span": 'alert tcp any any -> any any (content:"|' + "41 " * (_PAD // 3) + '"; sid:1;)',
    "bad hex byte": 'alert tcp any any -> any any (content:"' + "a" * _PAD + '|4G|"; sid:1;)',
    "unclosed list": "alert tcp [1.2.3.4" + ", 1.2.3.4" * (_PAD // 9) + " any -> any any (sid:1;)",
    "unterminated option": 'alert tcp any any -> any any (sid:1; msg:"' + "a" * _PAD + '")',
    "prefix past 32": "alert tcp [" + "10.0.0.0/8, " * (_PAD // 12) + "10.0.0.0/33] any -> any any (sid:1;)",
    "port past 65535": "alert tcp any [" + "80, " * (_PAD // 4) + "70000] -> any any (sid:1;)",
}


@pytest.mark.parametrize("shape", sorted(_HOSTILE))
def test_hostile_long_line_rejected_quickly(shape):
    line = _HOSTILE[shape]
    assert len(line) >= _PAD
    t0 = time.perf_counter()
    with pytest.raises(ParseError):
        parse_rule(line)
    assert time.perf_counter() - t0 < 1.0


def test_duplicate_sid_rejected():
    text = "\n".join(
        [
            'alert tcp any any -> any any (sid:5;)',
            'alert tcp any any -> any any (sid:5;)',
        ]
    )
    rs = load_ruleset(text)
    assert len(rs.rules) == 1 and len(rs.errors) == 1


def test_take_first_order_and_subset():
    rs = load_ruleset(CORPUS.read_text())
    assert len(rs) >= 100
    first_20 = rs.take_first(20)
    first_50 = rs.take_first(50)
    assert [r.sid for r in first_20] == [r.sid for r in rs.rules[:20]]
    assert [r.sid for r in first_20] == [r.sid for r in first_50][:20]
    assert rs.take_first(10**9).rules == rs.rules


def test_empty_ruleset_loads():
    rs = load_ruleset("")
    assert len(rs) == 0
    compiled = compile_ruleset(rs)
    assert len(compiled) == 0


def test_compile_fast_pattern_is_longest_content():
    rs = load_ruleset('alert tcp any any -> any any (content:"abc"; content:"abcdef"; sid:11;)')
    assert rs.rules[0].fast_pattern == b"abcdef"


def test_compile_contentless_bucket():
    rs = load_ruleset('alert tcp any any -> any any (flow: established; byte_test: 2,>,1,0; sid:12;)')
    compiled = compile_ruleset(rs)
    assert compiled.scan_payload(Proto.TCP, b"\x00\x05 any bytes") == set()
    assert compiled.admitted(FiveTuple(Proto.TCP, "10.0.0.1", 1, "10.0.0.2", 2), ()) == {12}


def test_compile_every_rule_reachable():
    """Every corpus rule is a candidate in each bucket it belongs to: a
    fast-pattern rule through that bucket's scan of its pattern, a
    contentless one with no hits at all, on a tuple its header admits."""
    rs = load_ruleset(CORPUS.read_text())
    compiled = compile_ruleset(rs)
    bucket_protos = {"tcp": [Proto.TCP], "udp": [Proto.UDP], "icmp": [Proto.ICMP], "ip": list(Proto)}

    def address(spec):
        return spec.nets[0][0] if spec.nets else parse_ip("192.0.2.1")

    for rule in rs.rules:
        for proto in bucket_protos[rule.proto]:
            if proto in (Proto.TCP, Proto.UDP):
                ports = [min(spec.ports) if spec.ports else 1 for spec in (rule.src_ports, rule.dst_ports)]
            elif rule.src_ports.any_port and rule.dst_ports.any_port:
                ports = [0, 0]
            else:
                continue  # no portless packet meets a port list
            t = FiveTuple(proto, address(rule.src), ports[0], address(rule.dst), ports[1])
            assert header_matches(rule, t)
            hits = compiled.scan_payload(proto, rule.fast_pattern or b"")
            assert (rule.sid in hits) == (rule.fast_pattern is not None)
            assert rule.sid in compiled.admitted(t, hits)


def test_shared_fast_pattern_yields_both_rules():
    text = "\n".join(
        [
            'alert tcp any any -> any any (content:"abc"; sid:21;)',
            'alert tcp any any -> any any (content:"abc"; content:"zz"; sid:22;)',
        ]
    )
    compiled = compile_ruleset(load_ruleset(text))
    assert compiled.scan_payload(Proto.TCP, b"xx abc yy") == {21, 22}


def test_fast_pattern_shared_by_tcp_and_ip_rules():
    """A pattern shared by a tcp rule and ``ip`` rules names all of them in
    the tcp bucket and only the ``ip`` ones elsewhere; the scan reports
    only-stream rules too, and the prefilter tells them apart."""
    text = "\n".join(
        [
            'alert tcp any any -> any any (content:"abc"; sid:31;)',
            'alert ip any any -> any any (content:"abc"; sid:32;)',
            'alert ip any any -> any any (flow: only_stream; content:"abc"; sid:33;)',
            'alert udp any any -> any any (content:"zz"; sid:34;)',
        ]
    )
    compiled = compile_ruleset(load_ruleset(text))
    assert compiled.scan_payload(Proto.TCP, b"xx abc yy") == {31, 32, 33}
    for proto in (Proto.UDP, Proto.ICMP, Proto.OTHER):
        assert compiled.scan_payload(proto, b"xx abc yy") == {32, 33}
    assert compiled.stream_rules == {33}


def test_contentless_rules_split_per_protocol():
    text = "\n".join(
        [
            'alert tcp any any -> any any (flow: established; sid:41;)',
            'alert udp any any -> any any (byte_test: 1,>,1,0; sid:42;)',
            'alert ip any any -> any any (byte_test: 1,>,2,0; sid:43;)',
            'alert icmp any any -> any any (byte_test: 1,>,3,0; sid:44;)',
        ]
    )
    compiled = compile_ruleset(load_ruleset(text))
    expected = {Proto.TCP: {41, 43}, Proto.UDP: {42, 43}, Proto.ICMP: {43, 44}, Proto.OTHER: {43}}
    for proto, sids in expected.items():
        assert compiled.scan_payload(proto, b"\x05 any bytes") == set()
        ports = (1, 2) if proto in (Proto.TCP, Proto.UDP) else (0, 0)
        t = FiveTuple(proto, "10.0.0.1", ports[0], "10.0.0.2", ports[1])
        assert compiled.admitted(t, ()) == sids
        assert sids == {sid for sid in compiled.rules if header_matches(compiled.rules[sid], t)}


def test_format_parse_roundtrip_over_corpus():
    rs = load_ruleset(CORPUS.read_text())
    assert len(rs) >= 100
    for rule in rs.rules:
        rendered = format_rule(rule)
        reparsed = parse_rule(rendered)
        assert reparsed == rule, f"sid {rule.sid} did not round-trip:\n{rendered}"


_ports = st.one_of(st.just(PORT_ANY), st.frozensets(st.integers(0, 65535), min_size=1, max_size=5).map(
    lambda ports: PortSpec(ports=ports)))
_addrs = st.one_of(
    st.just(ADDR_ANY),
    st.from_regex(r"[A-Z_][A-Z0-9_]{0,11}", fullmatch=True).map(lambda name: AddressSpec(var=name)),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)), min_size=1, max_size=4).map(
        lambda nets: AddressSpec(nets=tuple(nets))),
)
_contents = st.binary(min_size=1, max_size=24).flatmap(
    lambda pattern: st.builds(Content, pattern=st.just(pattern),
                              depth=st.none() | st.integers(len(pattern), 65535), offset=st.integers(0, 65535),
                              relative=st.booleans()))
_byte_tests = st.builds(ByteTest, nbytes=st.sampled_from([1, 2, 4]), op=st.sampled_from([">", "<", "="]),
                        value=st.integers(-(2**31), 2**32), offset=st.integers(-64, 65535),
                        relative=st.booleans())
_flows = st.none() | st.builds(FlowOpt, to_client=st.booleans(), to_server=st.booleans(),
                               established=st.booleans(), only_stream=st.booleans())


_CORPUS_RULES = load_ruleset(CORPUS.read_text()).rules


@st.composite
def _rules(draw):
    """A corpus rule with its header, msg, flow and payload options redrawn."""
    base = draw(st.sampled_from(_CORPUS_RULES))
    return dataclasses.replace(
        base,
        action=draw(st.sampled_from(["alert", "drop"])),
        proto=draw(st.sampled_from(["tcp", "udp", "icmp", "ip"])),
        src=draw(_addrs),
        src_ports=draw(_ports),
        direction=draw(st.sampled_from(["->", "<>"])),
        dst=draw(_addrs),
        dst_ports=draw(_ports),
        sid=draw(st.integers(0, 2**31)),
        rev=draw(st.integers(0, 1000)),
        msg=draw(st.text(max_size=40)),
        options=tuple(draw(st.lists(st.one_of(_contents, _byte_tests), max_size=4))),
        flow=draw(_flows),
    )


@given(_rules())
def test_format_parse_roundtrip_over_generated_rules(rule):
    rendered = format_rule(rule)
    assert parse_rule(rendered) == rule, rendered


def test_msg_quotes_and_backslashes_round_trip():
    rule = parse_rule(r'alert tcp any any -> any any (msg: "a \"q\" b\\c"; sid: 1;)')
    assert rule.msg == 'a "q" b\\c'
    assert parse_rule(format_rule(rule)) == rule
