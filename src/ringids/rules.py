"""Rule language parsing and ruleset compilation.

Grammar: one rule per line,

    action proto src_net src_ports direction dst_net dst_ports ( options )

with `#` comments. Supported options: msg, content (+ depth/offset/relative
modifiers), byte_test, flow, sid, rev, classtype, metadata, service,
reference. Any other option keyword is kept opaque and evaluates as
vacuously true, with a per-rule warning. Compilation picks each rule's
longest content pattern as its fast pattern and builds one multi-pattern
automaton per L4 bucket over that protocol's fast patterns plus the ``ip``
rules' ones, so the prefilter scans each buffer once. Rules without content
go to their bucket's contentless list, whose port specs are compiled to
plain sets so that filtering a packet's group calls no method.
"""

from __future__ import annotations

from collections.abc import Container, Set
from dataclasses import dataclass, field
from functools import cached_property

from .matching import MultiPatternMatcher
from .packet import FiveTuple, Proto, format_ip, parse_ip

RULE_ACTIONS = ("alert", "drop")
RULE_PROTOS = ("tcp", "udp", "icmp", "ip")

_PROTO_BUCKET = {Proto.TCP: "tcp", Proto.UDP: "udp", Proto.ICMP: "icmp", Proto.OTHER: "ip"}
_NO_HITS: tuple[frozenset[int], frozenset[int]] = (frozenset(), frozenset())
_ANY_PORT = range(65_536)  # every 16-bit port; `in` on a range is one bounds check


class ParseError(ValueError):
    """Rule text rejected; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at column {position})")
        self.message = message
        self.position = position


@dataclass(frozen=True)
class PortSpec:
    """`any`, a single port, or a bracketed list."""

    any_port: bool = False
    ports: frozenset[int] = frozenset()

    def matches(self, port: int) -> bool:
        return self.any_port or port in self.ports

    def render(self) -> str:
        if self.any_port:
            return "any"
        ports = sorted(self.ports)
        if len(ports) == 1:
            return str(ports[0])
        return "[" + ", ".join(str(p) for p in ports) + "]"


PORT_ANY = PortSpec(any_port=True)


@dataclass(frozen=True)
class AddressSpec:
    """`any`, a $VARIABLE, or literal IPv4 / CIDR networks."""

    any_addr: bool = False
    var: str | None = None
    nets: tuple[tuple[int, int], ...] = ()  # (address, prefix length)

    def resolve(self, variables: dict[str, "AddressSpec"] | None) -> "AddressSpec":
        if self.var is None:
            return self
        if variables and self.var in variables:
            return variables[self.var]
        return ADDR_ANY  # unbound variables default to any

    def matches(self, ip: int) -> bool:
        if self.any_addr:
            return True
        for net, prefix in self.nets:
            shift = 32 - prefix
            if ip >> shift == net >> shift:
                return True
        return False

    def render(self) -> str:
        if self.var is not None:
            return f"${self.var}"
        if self.any_addr:
            return "any"
        parts = [format_ip(net) if prefix == 32 else f"{format_ip(net)}/{prefix}" for net, prefix in self.nets]
        return parts[0] if len(parts) == 1 else "[" + ", ".join(parts) + "]"


ADDR_ANY = AddressSpec(any_addr=True)


@dataclass(frozen=True)
class Content:
    """Byte pattern with positional constraints.

    `offset` shifts the search start from its base; `depth` bounds how far
    past the base the match may extend; `relative` anchors the base at the
    end of the previous content match instead of the buffer start.
    """

    pattern: bytes
    depth: int | None = None
    offset: int = 0
    relative: bool = False


@dataclass(frozen=True)
class ByteTest:
    """Compare a big-endian unsigned read against a constant."""

    nbytes: int
    op: str  # one of > < =
    value: int
    offset: int
    relative: bool = False

    def __post_init__(self):
        if self.nbytes not in (1, 2, 4):
            raise ParseError(f"byte_test width must be 1, 2 or 4, got {self.nbytes}")
        if self.op not in (">", "<", "="):
            raise ParseError(f"unsupported byte_test operator {self.op!r}")


@dataclass(frozen=True)
class FlowOpt:
    """Flow-state constraints: direction, established, stream-only matching."""

    to_client: bool = False
    to_server: bool = False
    established: bool = False
    only_stream: bool = False

    def render(self) -> str:
        parts = []
        if self.to_client:
            parts.append("to_client")
        if self.to_server:
            parts.append("to_server")
        if self.established:
            parts.append("established")
        if self.only_stream:
            parts.append("only_stream")
        return ", ".join(parts)


@dataclass
class Rule:
    action: str
    proto: str
    src: AddressSpec
    src_ports: PortSpec
    direction: str  # -> or <>
    dst: AddressSpec
    dst_ports: PortSpec
    sid: int
    rev: int = 0
    msg: str = ""
    classtype: str = ""
    metadata: str = ""
    service: str = ""
    references: tuple[str, ...] = ()
    options: tuple = ()  # Content and ByteTest, in rule order
    flow: FlowOpt | None = None
    opaque: tuple[tuple[str, str], ...] = ()  # unsupported keywords, ignored
    warnings: tuple[str, ...] = field(default=(), compare=False)  # parse notes, not part of the rule

    @property
    def contents(self) -> tuple[Content, ...]:
        return tuple(o for o in self.options if isinstance(o, Content))

    @property
    def fast_pattern(self) -> bytes | None:
        """Longest content pattern (first wins on ties); None if contentless."""
        best = None
        for c in self.contents:
            if best is None or len(c.pattern) > len(best):
                best = c.pattern
        return best

    @property
    def only_stream(self) -> bool:
        return self.flow is not None and self.flow.only_stream

    @cached_property
    def blocks_in_inline(self) -> bool:
        """drop action, or a `policy ... drop` clause in metadata."""
        if self.action == "drop":
            return True
        for clause in self.metadata.split(","):
            words = clause.split()
            if len(words) >= 2 and words[0] == "policy" and words[-1] == "drop":
                return True
        return False


def ports_match(rule: Rule, tuple_: FiveTuple) -> bool:
    """The rule's port specs admit the tuple, either way round for ``<>``."""
    fwd = rule.src_ports.matches(tuple_.src_port) and rule.dst_ports.matches(tuple_.dst_port)
    if rule.direction == "->":
        return fwd
    return fwd or (rule.src_ports.matches(tuple_.dst_port) and rule.dst_ports.matches(tuple_.src_port))


def _port_filter(rule: Rule) -> tuple[int, Container[int], Container[int], bool]:
    """The rule's port specs as plain sets, for ``CompiledRuleSet.port_group``."""
    src = _ANY_PORT if rule.src_ports.any_port else rule.src_ports.ports
    dst = _ANY_PORT if rule.dst_ports.any_port else rule.dst_ports.ports
    return rule.sid, src, dst, rule.direction == "<>"


def _strip(s: str) -> str:
    return s.strip(" \t")


def _tokenize_header(text: str) -> list[tuple[str, int]]:
    """Whitespace tokens, except bracketed groups stay together."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        depth = 0
        while i < n and (depth > 0 or not text[i].isspace()):
            if text[i] == "[":
                depth += 1
            elif text[i] == "]":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced ']' in header", i)
            i += 1
        if depth != 0:
            raise ParseError("unbalanced '[' in header", start)
        tokens.append((text[start:i], start))
    return tokens


def _parse_ports(token: str, position: int) -> PortSpec:
    token = _strip(token)
    if token == "any" or token.startswith("$"):
        # port variables are out of the supported subset; treated as any
        return PORT_ANY
    items = token[1:-1].split(",") if token.startswith("[") and token.endswith("]") else [token]
    ports = []
    for item in items:
        item = _strip(item)
        if not item.isdigit():
            raise ParseError(f"unsupported port spec {item!r}", position)
        port = int(item)
        if not 0 <= port <= 65535:
            raise ParseError(f"port {port} out of range", position)
        ports.append(port)
    return PortSpec(ports=frozenset(ports))


def _parse_one_addr(item: str, position: int) -> AddressSpec:
    if item == "any":
        return ADDR_ANY
    if item.startswith("$"):
        return AddressSpec(var=item[1:])
    if "/" in item:
        base, _, plen = item.partition("/")
        if not plen.isdigit() or not 0 <= int(plen) <= 32:
            raise ParseError(f"bad CIDR prefix in {item!r}", position)
        try:
            return AddressSpec(nets=((parse_ip(base), int(plen)),))
        except ValueError as exc:
            raise ParseError(str(exc), position) from None
    try:
        return AddressSpec(nets=((parse_ip(item), 32),))
    except ValueError as exc:
        raise ParseError(str(exc), position) from None


def _parse_addr(token: str, position: int) -> AddressSpec:
    token = _strip(token)
    if token.startswith("[") and token.endswith("]"):
        nets: list[tuple[int, int]] = []
        for item in token[1:-1].split(","):
            spec = _parse_one_addr(_strip(item), position)
            if spec.any_addr or spec.var is not None:
                return spec  # any / variable dominates the list
            nets.extend(spec.nets)
        return AddressSpec(nets=tuple(nets))
    return _parse_one_addr(token, position)


def _split_options(block: str, base: int) -> list[tuple[str, str, int]]:
    """Split `key: value; key; ...` honoring quotes and backslash escapes."""
    parts = []
    i, n = 0, len(block)
    start = i
    in_quote = False
    while i < n:
        ch = block[i]
        if ch == "\\" and in_quote:
            i += 2
            continue
        if ch == '"':
            in_quote = not in_quote
        elif ch == ";" and not in_quote:
            parts.append((block[start:i], base + start))
            start = i + 1
        i += 1
    if in_quote:
        raise ParseError("unbalanced quote in options", base + start)
    tail = _strip(block[start:])
    if tail:
        raise ParseError(f"option {tail!r} not terminated by ';'", base + start)
    out = []
    for raw, pos in parts:
        raw = _strip(raw)
        if not raw:
            continue
        key, sep, value = raw.partition(":")
        out.append((_strip(key), _strip(value) if sep else "", pos))
    return out


def _quote(text: str) -> str:
    """Inverse of _unquote: backslash-escape ``\\`` and ``"``."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unquote(value: str, position: int) -> str:
    if len(value) < 2 or value[0] != '"' or value[-1] != '"':
        raise ParseError(f"expected quoted string, got {value!r}", position)
    body = value[1:-1]
    out = []
    i = 0
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            out.append(body[i + 1])
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


def decode_pattern(text: str, position: int = 0) -> bytes:
    """Decode a content string: literal chars with |xx xx| hex spans. A
    character above U+00FF is no single byte and is a ParseError."""
    out = bytearray()
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "|":
            end = text.find("|", i + 1)
            if end < 0:
                raise ParseError("unterminated hex span in content", position + i)
            for tok in text[i + 1 : end].split():
                try:
                    out.append(int(tok, 16))  # ValueError also when outside 0..FF
                except ValueError:
                    raise ParseError(f"bad hex byte {tok!r} in content", position + i) from None
            i = end + 1
        else:
            if ch == "\\" and i + 1 < n:
                i += 1
                ch = text[i]
            if ord(ch) > 0xFF:
                raise ParseError(f"character {ch!r} in content is not a byte; use a |xx| hex span", position + i)
            out.append(ord(ch))
            i += 1
    return bytes(out)


def encode_pattern(data: bytes) -> str:
    """Inverse of decode_pattern, hex-escaping anything non-printable."""
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


def _split_commas_outside_quotes(value: str) -> list[str]:
    parts = []
    i, start, n = 0, 0, len(value)
    in_quote = False
    while i < n:
        ch = value[i]
        if ch == "\\" and in_quote:
            i += 2
            continue
        if ch == '"':
            in_quote = not in_quote
        elif ch == "," and not in_quote:
            parts.append(value[start:i])
            start = i + 1
        i += 1
    parts.append(value[start:])
    return [_strip(p) for p in parts]


def _parse_content(value: str, position: int, warnings: list[str]) -> Content:
    parts = _split_commas_outside_quotes(value)
    if not parts or parts[0].startswith("!"):
        raise ParseError("negated or empty content is unsupported", position)
    pattern = decode_pattern(_unquote(parts[0], position), position)
    if not pattern:
        raise ParseError("content pattern is empty", position)
    depth: int | None = None
    offset = 0
    relative = False
    for mod in parts[1:]:
        words = mod.split()
        if not words:
            continue
        if words[0] == "depth" and len(words) == 2 and words[1].isdigit():
            depth = int(words[1])
        elif words[0] == "offset" and len(words) == 2 and words[1].isdigit():
            offset = int(words[1])
        elif words[0] == "relative":
            relative = True
        else:
            warnings.append(f"ignored content modifier {mod!r}")
    return Content(pattern=pattern, depth=depth, offset=offset, relative=relative)


def _parse_byte_test(value: str, position: int, warnings: list[str]) -> ByteTest:
    parts = [p for p in _split_commas_outside_quotes(value) if p]
    if len(parts) < 4:
        raise ParseError("byte_test needs bytes,op,value,offset", position)
    try:
        nbytes = int(parts[0])
        num = int(parts[2])
        off = int(parts[3])
    except ValueError:
        raise ParseError(f"non-numeric byte_test field in {value!r}", position) from None
    relative = False
    for extra in parts[4:]:
        if extra == "relative":
            relative = True
        else:
            warnings.append(f"ignored byte_test modifier {extra!r}")
    return ByteTest(nbytes=nbytes, op=parts[1], value=num, offset=off, relative=relative)


def _parse_flow(value: str, warnings: list[str]) -> FlowOpt:
    to_client = to_server = established = only_stream = False
    for tok in _split_commas_outside_quotes(value):
        if tok in ("to_client", "from_server"):
            to_client = True
        elif tok in ("to_server", "from_client"):
            to_server = True
        elif tok == "established":
            established = True
        elif tok == "only_stream":
            only_stream = True
        elif tok:
            warnings.append(f"ignored flow token {tok!r}")
    return FlowOpt(to_client=to_client, to_server=to_server, established=established, only_stream=only_stream)


def parse_rule(line: str) -> Rule:
    """Parse one rule line into its structured form; ``$NAME`` addresses
    stay names until the ruleset is compiled.

    Raises ParseError (with position) on malformed header, unbalanced
    quotes/parens, a content character that is not a byte, or a missing sid.
    """
    open_paren = line.find("(")
    close_paren = line.rfind(")")
    if open_paren < 0 or close_paren < open_paren:
        raise ParseError("rule has no ( options ) section", max(open_paren, 0))

    tokens = _tokenize_header(line[:open_paren])
    if len(tokens) != 7:
        raise ParseError(f"header needs 7 fields, got {len(tokens)}", tokens[-1][1] if tokens else 0)
    (action, apos), (proto, ppos), (src, spos), (sports, sppos), (arrow, dpos), (dst, dstpos), (dports, dppos) = tokens
    if action not in RULE_ACTIONS:
        raise ParseError(f"unsupported action {action!r}", apos)
    if proto not in RULE_PROTOS:
        raise ParseError(f"unsupported protocol {proto!r}", ppos)
    if arrow not in ("->", "<>"):
        raise ParseError(f"bad direction {arrow!r}", dpos)

    warnings: list[str] = []
    options: list = []
    flow: FlowOpt | None = None
    msg = classtype = metadata = service = ""
    references: list[str] = []
    opaque: list[tuple[str, str]] = []
    sid: int | None = None
    rev = 0

    for key, value, pos in _split_options(line[open_paren + 1 : close_paren], open_paren + 1):
        if key == "msg":
            msg = _unquote(value, pos)
        elif key == "content":
            options.append(_parse_content(value, pos, warnings))
        elif key == "byte_test":
            options.append(_parse_byte_test(value, pos, warnings))
        elif key == "flow":
            flow = _parse_flow(value, warnings)
        elif key in ("depth", "offset") and options and isinstance(options[-1], Content):
            # follower-style modifier attaching to the previous content
            if not value.isdigit():
                raise ParseError(f"bad {key} value {value!r}", pos)
            options[-1] = (
                Content(options[-1].pattern, depth=int(value), offset=options[-1].offset, relative=options[-1].relative)
                if key == "depth"
                else Content(options[-1].pattern, depth=options[-1].depth, offset=int(value), relative=options[-1].relative)
            )
        elif key == "sid":
            try:
                sid = int(value)
            except ValueError:
                raise ParseError(f"bad sid {value!r}", pos) from None
        elif key == "rev":
            try:
                rev = int(value)
            except ValueError:
                raise ParseError(f"bad rev {value!r}", pos) from None
        elif key == "classtype":
            classtype = value
        elif key == "metadata":
            metadata = value
        elif key == "service":
            service = value
        elif key == "reference":
            references.append(value)
        else:
            opaque.append((key, value))
            warnings.append(f"option {key!r} is outside the supported subset; treated as always-true")

    if sid is None:
        raise ParseError("missing sid", close_paren)

    return Rule(
        action=action,
        proto=proto,
        src=_parse_addr(src, spos),
        src_ports=_parse_ports(sports, sppos),
        direction=arrow,
        dst=_parse_addr(dst, dstpos),
        dst_ports=_parse_ports(dports, dppos),
        sid=sid,
        rev=rev,
        msg=msg,
        classtype=classtype,
        metadata=metadata,
        service=service,
        references=tuple(references),
        options=tuple(options),
        flow=flow,
        opaque=tuple(opaque),
        warnings=tuple(warnings),
    )


def format_rule(rule: Rule) -> str:
    """Render a rule back to canonical one-line text (parse round-trips)."""
    opts = []
    if rule.msg:
        opts.append(f"msg: {_quote(rule.msg)}")
    if rule.flow is not None:
        opts.append(f"flow: {rule.flow.render()}")
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
        f"{rule.action} {rule.proto} {rule.src.render()} {rule.src_ports.render()} "
        f"{rule.direction} {rule.dst.render()} {rule.dst_ports.render()} ({body};)"
    )


@dataclass
class RuleSet:
    rules: list[Rule] = field(default_factory=list)
    variables: dict[str, AddressSpec] = field(default_factory=dict)
    errors: list[tuple[int, ParseError]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def take_first(self, n: int) -> "RuleSet":
        """First n rules in file order (the whole set if n exceeds it)."""
        return RuleSet(rules=self.rules[:n], variables=dict(self.variables), errors=list(self.errors))


def load_ruleset(text: str) -> RuleSet:
    """Load rules line by line; parse failures are collected, not fatal."""
    rs = RuleSet()
    seen_sids: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rule = parse_rule(stripped)
        except ParseError as exc:
            rs.errors.append((lineno, exc))
            continue
        if rule.sid in seen_sids:
            rs.errors.append((lineno, ParseError(f"duplicate sid {rule.sid}")))
            continue
        seen_sids.add(rule.sid)
        rs.rules.append(rule)
    return rs


def load_ruleset_file(path) -> RuleSet:
    """``load_ruleset`` over a UTF-8 file; an undecodable byte becomes
    U+FFFD, so its rule is recorded as a ParseError and the others load."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return load_ruleset(fh.read())


class CompiledRuleSet:
    """Phase-1 index plus full rule records, immutable once built.

    Rules are grouped per L4 bucket (``tcp``, ``udp``, ``icmp``, and ``ip``
    for any other protocol), as Snort 2 groups fast patterns per protocol.
    Each bucket's automaton holds that protocol's fast patterns plus those of
    the ``ip`` rules, so one scan covers every rule a packet can match. A hit
    maps back to the owning rule sids, split by whether the rule matches raw
    payload or reassembled stream bytes; a pattern shared by a protocol rule
    and an ``ip`` rule maps to both. Contentless rules are candidates on
    every packet of their bucket whose ports they admit.
    """

    def __init__(self, ruleset: RuleSet):
        self.rules: dict[int, Rule] = {}
        self.contentless: list[int] = []
        self._resolved: dict[int, tuple[AddressSpec, AddressSpec]] = {}
        self._matchers: dict[str, MultiPatternMatcher] = {}
        # per bucket: pattern id -> (payload-rule sids, stream-rule sids)
        self._pattern_rules: dict[str, list[tuple[list[int], list[int]]]] = {}
        self._contentless: dict[str, tuple[int, ...]] = {}
        # per bucket: each contentless rule as (sid, src ports, dst ports, ``<>``)
        self._contentless_ports: dict[str, tuple[tuple[int, Container[int], Container[int], bool], ...]] = {}

        # per rule protocol: fast pattern -> (payload-rule sids, stream-rule sids)
        by_proto: dict[str, dict[bytes, tuple[list[int], list[int]]]] = {p: {} for p in RULE_PROTOS}
        for rule in ruleset.rules:
            self.rules[rule.sid] = rule
            self._resolved[rule.sid] = (rule.src.resolve(ruleset.variables), rule.dst.resolve(ruleset.variables))
            fast = rule.fast_pattern
            if fast is None:
                self.contentless.append(rule.sid)
                continue
            payload_sids, stream_sids = by_proto[rule.proto].setdefault(fast, ([], []))
            (stream_sids if rule.only_stream else payload_sids).append(rule.sid)

        for bucket in RULE_PROTOS:
            members = (bucket, "ip") if bucket != "ip" else ("ip",)
            self._contentless[bucket] = tuple(sid for sid in self.contentless if self.rules[sid].proto in members)
            self._contentless_ports[bucket] = tuple(_port_filter(self.rules[sid]) for sid in self._contentless[bucket])
            merged: dict[bytes, tuple[list[int], list[int]]] = {}
            for proto in members:
                for pattern, (payload_sids, stream_sids) in by_proto[proto].items():
                    into_payload, into_stream = merged.setdefault(pattern, ([], []))
                    into_payload.extend(payload_sids)
                    into_stream.extend(stream_sids)
            self._pattern_rules[bucket] = list(merged.values())
            if merged:
                m = MultiPatternMatcher()
                for pid, pattern in enumerate(merged):
                    m.add(pattern, pid)
                self._matchers[bucket] = m.build()

    def __len__(self) -> int:
        return len(self.rules)

    def resolved_addrs(self, sid: int) -> tuple[AddressSpec, AddressSpec]:
        return self._resolved[sid]

    def contentless_for(self, proto: Proto) -> tuple[int, ...]:
        """Contentless rules of ``proto``'s bucket: its own plus the ``ip`` ones."""
        return self._contentless[_PROTO_BUCKET[proto]]

    def port_group(self, tuple_: FiveTuple) -> list[int]:
        """The contentless rules of the tuple's bucket whose ports admit it,
        in ``contentless_for`` order: ``ports_match`` on the compiled port sets."""
        sport, dport = tuple_.src_port, tuple_.dst_port
        group = []  # a loop: a comprehension here would make closure cells on every call
        for sid, src, dst, both_ways in self._contentless_ports[_PROTO_BUCKET[tuple_.proto]]:
            if (sport in src and dport in dst) or (both_ways and dport in src and sport in dst):
                group.append(sid)
        return group

    def scan_payload(self, proto: Proto, data) -> tuple[Set[int], Set[int]]:
        """Scan one buffer once; returns (payload-rule sids, stream-rule sids) hit.

        The result is read-only: a scan with no hits returns one shared pair
        of empty frozensets."""
        bucket = _PROTO_BUCKET[proto]
        matcher = self._matchers.get(bucket)
        pids = matcher.scan(data) if matcher is not None else ()
        if not pids:
            return _NO_HITS
        payload_hits: set[int] = set()
        stream_hits: set[int] = set()
        table = self._pattern_rules[bucket]
        for pid in pids:
            payload_sids, stream_sids = table[pid]
            payload_hits.update(payload_sids)
            stream_hits.update(stream_sids)
        return payload_hits, stream_hits


def compile_ruleset(ruleset: RuleSet) -> CompiledRuleSet:
    return CompiledRuleSet(ruleset)
