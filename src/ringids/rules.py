"""Rule language parsing and ruleset compilation.

Grammar: one rule per line, `#` comments and blank lines skipped,

    rule    = header "(" options ")"
    header  = action proto src_net src_ports direction dst_net dst_ports
    options = { [key [":" value]] ";" }
    content = quoted { "," modifier }
    pattern = { char | "\\" char | "|" { hex hex } "|" }

Header fields are separated by whitespace; a bracketed list is one field,
spaces and all. An option ends at the first `;` outside a quoted string
(`"..."`, where `\\` escapes any character); its key is the text before its
first `:`. A content value is a quoted pattern followed by depth N, offset N
or relative modifiers; the pattern is text with `|41 42|` hex spans, each
byte two hex digits, with optional whitespace between bytes (`|4142|` is
the same span). Ports, prefix lengths, depth, offset, sid and rev are
`[0-9]+`; byte_test fields are what ``int()`` reads, in ASCII digits only,
since they may be negative. Each production is
one compiled regular expression, so no rule text is read a character at a
time.

Supported options: msg, content (+ depth/offset/relative
modifiers; a depth shorter than the pattern is an error), byte_test, flow,
sid, rev, classtype, metadata, service, reference. Any other option
keyword is kept opaque and evaluates as vacuously true, with a per-rule
warning. Compilation picks each rule's
longest content pattern as its fast pattern and builds one multi-pattern
automaton per L4 bucket over that protocol's fast patterns plus the ``ip``
rules' ones, so the prefilter scans each buffer once. Each pattern is
registered under its rule's sid, so a scan reports rule sids directly. Rules
without content go to their bucket's contentless list. Each rule's header is
compiled once, to port sets and address ranges, and
``CompiledRuleSet.admitted`` is the one place it is checked: the bucket
settles the protocol, and ports and addresses are tested together, either
way round for ``<>``.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Container, Set
from dataclasses import dataclass, field, replace
from functools import cached_property

from .matching import MultiPatternMatcher
from .packet import FiveTuple, Proto, parse_ip

RULE_ACTIONS = ("alert", "drop")
RULE_PROTOS = ("tcp", "udp", "icmp", "ip")

_PROTO_BUCKET = {Proto.TCP: "tcp", Proto.UDP: "udp", Proto.ICMP: "icmp", Proto.OTHER: "ip"}
_NO_SIDS: frozenset[int] = frozenset()
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
    def retried(self) -> tuple[bool, ...]:
        """Per option: whether it is a content whose match position a later
        option reads, through a relative option up to and including the next
        content. Phase 2 retries such a content at its later occurrences."""
        out = []
        for i, opt in enumerate(self.options):
            read = False
            if isinstance(opt, Content):
                for later in self.options[i + 1 :]:
                    if later.relative or isinstance(later, Content):
                        read = later.relative
                        break
            out.append(read)
        return tuple(out)

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


class _Nets(tuple):
    """A bracketed address list: ``ip in nets`` when some net's range holds it."""

    __slots__ = ()

    def __contains__(self, ip) -> bool:
        return any(ip in net for net in self)


def _addr_filter(spec: AddressSpec) -> Container[int] | None:
    """An address spec as ranges of addresses; ``None`` for any."""
    if spec.any_addr:
        return None
    nets = []
    for net, prefix in spec.nets:
        size = 1 << (32 - prefix)
        start = net & -size  # the network's first address
        nets.append(range(start, start + size))
    return nets[0] if len(nets) == 1 else _Nets(nets)


def _header(rule: Rule, variables: dict[str, AddressSpec]) -> tuple:
    """The rule's header as (sid, src ports, dst ports, src addresses, dst addresses, ``<>``)."""
    return (
        rule.sid,
        _ANY_PORT if rule.src_ports.any_port else rule.src_ports.ports,
        _ANY_PORT if rule.dst_ports.any_port else rule.dst_ports.ports,
        _addr_filter(rule.src.resolve(variables)),
        _addr_filter(rule.dst.resolve(variables)),
        rule.direction == "<>",
    )


_WS = " \t"  # what option text and list items are trimmed of

# The lexical grammar, one compiled pattern per production.
_INT = r"\s*[+-]?[0-9]+(?:_[0-9]+)*\s*"  # what int() reads, in ASCII digits only
_QUOTED_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'  # inside a quoted string; `\` escapes any character
_ITEM = rf'[^,"]*(?:"{_QUOTED_BODY}"[^,"]*)*'  # one list item; a quoted run may hold commas

_VALUE = rf'[^;"]*(?:"{_QUOTED_BODY}"[^;"]*)*'  # option text up to its `;`; a quoted run may hold `;`

# A header field: a run of non-space characters, a bracketed list counting as
# one character, spaces and all. A bracket no field takes is a lone one.
_HEADER_FIELD = re.compile(r"(?:[^\s\[\]]+|\[[^\[\]]*\])+|[\[\]]")
# One step through the options block. ``key`` is the text before the first
# `:`; an option with a quote ahead of its first `:` is taken whole, for
# ``str.partition`` to split it as written.
_OPTION = re.compile(
    rf"""
    [ \t]*(?P<at>)              # the option starts past the blanks after the previous `;`
    (?:
        (?P<key>[^:;"]*)(?:(?P<colon>:)(?P<value>{_VALUE}))?;
      | (?P<quoted_key>[^:;"]*"{_QUOTED_BODY}"{_VALUE});
      | (?P<tail>{_VALUE})\Z     # the text after the last `;`
      | (?P<unclosed>.+)         # from an option whose quote never closes
    )
    """,
    re.S | re.X,
)
_LIST_ITEM = re.compile(rf"(?:\A|,)({_ITEM})", re.S)
# A content value: a quoted pattern, then `, modifier` items. Quoted runs
# joined by unquoted text are one pattern (`"a"b"c"` reads `a"b"c`).
_CONTENT = re.compile(rf'"({_QUOTED_BODY}(?:"[^,"]*"{_QUOTED_BODY})*)"[ \t]*(?:,(.*))?\Z', re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)
# A piece of a content pattern: a literal run, an escaped character, a hex
# span, a `|` that opens no span, or a `\` that ends the text (a literal).
_PATTERN_PIECE = re.compile(r"([^|\\]+)|\\(.)|\|([^|]*)\||(\|)|(\\)", re.S)
# a hex span: byte-wide pairs of hex digits, with ASCII whitespace between
# bytes only, which is what bytes.fromhex reads
_HEX_SPAN = re.compile(r"\s*(?:[0-9a-fA-F]{2}\s*)*", re.ASCII)
_NUMBER = re.compile(_INT)
_DIGITS = re.compile(r"[0-9]+")
_PORTS = re.compile(r"[0-9]+|\[[ \t]*[0-9]+[ \t]*(?:,[ \t]*[0-9]+[ \t]*)*\]")
_NET = re.compile(rf"({_INT}\.{_INT}\.{_INT}\.{_INT})(?:/([0-9]+))?")


def _int(text: str) -> int | None:
    return int(text) if _NUMBER.fullmatch(text) else None


def _parse_ports(token: str) -> PortSpec:
    if token == "any" or token.startswith("$"):
        # port variables are out of the supported subset; treated as any
        return PORT_ANY
    if not _PORTS.fullmatch(token):
        raise ParseError(f"unsupported port spec {token!r}")
    ports = [int(p) for p in _DIGITS.findall(token)]
    for port in ports:
        if port > 65535:
            raise ParseError(f"port {port} out of range")
    return PortSpec(ports=frozenset(ports))


def _parse_one_addr(item: str) -> AddressSpec:
    if item == "any":
        return ADDR_ANY
    if item.startswith("$"):
        return AddressSpec(var=item[1:])
    m = _NET.fullmatch(item)
    if m is None:
        raise ParseError(f"bad IPv4 address or network {item!r}")
    address, prefix = m.groups()
    plen = 32 if prefix is None else int(prefix)
    if plen > 32:
        raise ParseError(f"bad CIDR prefix in {item!r}")
    try:
        return AddressSpec(nets=((parse_ip(address), plen),))
    except ValueError as exc:  # an octet past 255
        raise ParseError(str(exc)) from None


def _parse_addr(token: str) -> AddressSpec:
    if token.startswith("[") and token.endswith("]"):
        nets: list[tuple[int, int]] = []
        for item in token[1:-1].split(","):
            spec = _parse_one_addr(item.strip(_WS))
            if spec.any_addr or spec.var is not None:
                return spec  # any / variable dominates the list
            nets.extend(spec.nets)
        return AddressSpec(nets=tuple(nets))
    return _parse_one_addr(token)


def _unescape(text: str) -> str:
    return _ESCAPE.sub(r"\1", text) if "\\" in text else text


def _unquote(value: str, position: int) -> str:
    if len(value) < 2 or value[0] != '"' or value[-1] != '"':
        raise ParseError(f"expected quoted string, got {value!r}", position)
    return _unescape(value[1:-1])


def _items(value: str) -> list[str]:
    """The comma-separated items of an option value, trimmed; commas inside
    quotes do not split."""
    return [item.strip(_WS) for item in _LIST_ITEM.findall(value)]


def decode_pattern(text: str, position: int = 0) -> bytes:
    """Decode a content string: literal chars with |xx xx| hex spans. A
    character above U+00FF is no single byte and is a ParseError; errors
    carry ``position``, the column of the content option."""
    pieces = []
    for literal, escaped, span, bar, backslash in _PATTERN_PIECE.findall(text):
        if span:
            pieces.append(_hex_bytes(span, position))
        elif bar:
            raise ParseError("unterminated hex span in content", position)
        else:  # an empty span `||` adds the empty string
            try:
                pieces.append((literal or escaped or backslash).encode("latin-1"))
            except UnicodeEncodeError as exc:
                ch = exc.object[exc.start]
                raise ParseError(f"character {ch!r} in content is not a byte; use a |xx| hex span", position) from None
    return b"".join(pieces)


def _hex_bytes(span: str, position: int) -> bytes:
    """The bytes of a hex span: two hex digits per byte, optionally spaced
    between bytes, as Snort reads them; an odd digit count is an error."""
    if not _HEX_SPAN.fullmatch(span):
        raise ParseError(f"bad hex byte in span {span!r} of content", position)
    return bytes.fromhex(span)


def _parse_content(value: str, position: int, warnings: list[str]) -> Content:
    m = _CONTENT.match(value)
    if m is None:
        raise ParseError(f"content must be a quoted pattern, got {value!r}", position)
    pattern = decode_pattern(_unescape(m[1]), position)
    if not pattern:
        raise ParseError("content pattern is empty", position)
    depth: int | None = None
    offset = 0
    relative = False
    for mod in _items(m[2]) if m[2] is not None else ():
        words = mod.split()
        if not words:
            continue
        if words[0] in ("depth", "offset") and len(words) == 2 and words[1].isdigit():
            if not _DIGITS.fullmatch(words[1]):  # `²` is a digit to str.isdigit, but no number
                raise ParseError(f"content {mod!r} is not in ASCII digits", position)
            if words[0] == "depth":
                depth = int(words[1])
            else:
                offset = int(words[1])
        elif words[0] == "relative":
            relative = True
        else:
            warnings.append(f"ignored content modifier {mod!r}")
    return _fitting(Content(pattern=pattern, depth=depth, offset=offset, relative=relative), position)


def _fitting(content: Content, position: int) -> Content:
    """``content``, unless its depth is shorter than its pattern: such a
    content can never match, and Snort 2 rejects it too."""
    if content.depth is not None and content.depth < len(content.pattern):
        raise ParseError(
            f"content depth {content.depth} is shorter than its {len(content.pattern)}-byte pattern", position
        )
    return content


def _parse_byte_test(value: str, position: int, warnings: list[str]) -> ByteTest:
    parts = [p for p in _items(value) if p]
    if len(parts) < 4:
        raise ParseError("byte_test needs bytes,op,value,offset", position)
    nbytes, num, off = _int(parts[0]), _int(parts[2]), _int(parts[3])
    if nbytes is None or num is None or off is None:
        raise ParseError(f"non-numeric byte_test field in {value!r}", position)
    relative = False
    for extra in parts[4:]:
        if extra == "relative":
            relative = True
        else:
            warnings.append(f"ignored byte_test modifier {extra!r}")
    return ByteTest(nbytes=nbytes, op=parts[1], value=num, offset=off, relative=relative)


def _parse_flow(value: str, warnings: list[str]) -> FlowOpt:
    to_client = to_server = established = only_stream = False
    for tok in _items(value):
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
    return _parse_rule(line, {}, {})


def _field_start(line: str, fields: list[str], index: int) -> int:
    """Column of header field ``index``: fields are separated by whitespace
    only, so each one is the first occurrence of its text after the last."""
    at = 0
    for text in fields[: index + 1]:
        at = line.index(text, at) + len(text)
    return at - len(fields[index])


def _parse_rule(line: str, addrs: dict[str, AddressSpec], ports: dict[str, PortSpec]) -> Rule:
    """``parse_rule``, reusing the address and port specs already parsed
    from the same field text by this ruleset's earlier rules."""
    open_paren = line.find("(")
    close_paren = line.rfind(")")
    if open_paren < 0 or close_paren < open_paren:
        raise ParseError("rule has no ( options ) section", max(open_paren, 0))

    fields = _HEADER_FIELD.findall(line, 0, open_paren)
    for lone in ("[", "]"):
        if lone in fields:
            raise ParseError(f"unbalanced or nested {lone!r} in header", _field_start(line, fields, fields.index(lone)))
    if len(fields) != 7:
        last = _field_start(line, fields, len(fields) - 1) if fields else 0
        raise ParseError(f"header needs 7 fields, got {len(fields)}", last)
    action, proto, src, sports, arrow, dst, dports = fields
    if action not in RULE_ACTIONS:
        raise ParseError(f"unsupported action {action!r}", _field_start(line, fields, 0))
    if proto not in RULE_PROTOS:
        raise ParseError(f"unsupported protocol {proto!r}", _field_start(line, fields, 1))
    if arrow not in ("->", "<>"):
        raise ParseError(f"bad direction {arrow!r}", _field_start(line, fields, 4))

    warnings: list[str] = []
    options: list = []
    flow: FlowOpt | None = None
    msg = classtype = metadata = service = ""
    references: list[str] = []
    opaque: list[tuple[str, str]] = []
    sid: int | None = None
    rev: int | None = 0

    for m in _OPTION.finditer(line, open_paren + 1, close_paren):
        _, key, colon, value, quoted_key, tail, unclosed = m.groups()
        if key is None:
            if unclosed is not None:
                raise ParseError("unbalanced quote in options", m.start("at"))
            if tail is not None:
                if tail.strip(_WS):
                    raise ParseError(f"option {tail.strip(_WS)!r} not terminated by ';'", m.start("at"))
                break
            key, colon, value = quoted_key.strip(_WS).partition(":")
        key = key.strip(_WS)
        if not colon:
            if not key:
                continue  # an empty option, as in `;;`
            value = ""
        value = value.strip(_WS)
        if key == "msg":
            msg = _unquote(value, m.start("at"))
        elif key == "content":
            content_at = m.start("at")
            options.append(_parse_content(value, content_at, warnings))
        elif key == "sid":
            if not _DIGITS.fullmatch(value):
                raise ParseError(f"bad sid {value!r}", m.start("at"))
            sid = int(value)
        elif key == "rev":
            if not _DIGITS.fullmatch(value):
                raise ParseError(f"bad rev {value!r}", m.start("at"))
            rev = int(value)
        elif key == "classtype":
            classtype = value
        elif key == "service":
            service = value
        elif key == "flow":
            flow = _parse_flow(value, warnings)
        elif key == "byte_test":
            options.append(_parse_byte_test(value, m.start("at"), warnings))
        elif key == "metadata":
            metadata = value
        elif key == "reference":
            references.append(value)
        elif key in ("depth", "offset") and options and isinstance(options[-1], Content):
            # follower-style modifier attaching to the previous content
            if not _DIGITS.fullmatch(value):
                raise ParseError(f"bad {key} value {value!r}", m.start("at"))
            options[-1] = _fitting(replace(options[-1], **{key: int(value)}), content_at)
        else:
            opaque.append((key, value))
            warnings.append(f"option {key!r} is outside the supported subset; treated as always-true")

    if sid is None:
        raise ParseError("missing sid", close_paren)

    field = 2
    try:
        src_spec = addrs.get(src) or addrs.setdefault(src, _parse_addr(src))
        field = 3
        sports_spec = ports.get(sports) or ports.setdefault(sports, _parse_ports(sports))
        field = 5
        dst_spec = addrs.get(dst) or addrs.setdefault(dst, _parse_addr(dst))
        field = 6
        dports_spec = ports.get(dports) or ports.setdefault(dports, _parse_ports(dports))
    except ParseError as exc:
        raise ParseError(exc.message, _field_start(line, fields, field)) from None

    return Rule(
        action=action,
        proto=proto,
        src=src_spec,
        src_ports=sports_spec,
        direction=arrow,
        dst=dst_spec,
        dst_ports=dports_spec,
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
    addrs: dict[str, AddressSpec] = {}
    ports: dict[str, PortSpec] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rule = _parse_rule(stripped, addrs, ports)
        except ParseError as exc:
            rs.errors.append((lineno, exc.with_traceback(None)))  # pins none of the loader's frames
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
    the ``ip`` rules, each under its rule's sid, so one scan covers every rule
    a packet can match and reports sids; rules that share a pattern share its
    accepting state, and a hit names them all. ``scan_payload`` does not know
    which buffer it scans: ``detect.prefilter`` keeps the ``stream_rules``
    hits of the stream scan and the others of the payload scan. Contentless
    rules are candidates on every packet of their bucket whose header admits
    it.
    """

    def __init__(self, ruleset: RuleSet):
        self.rules: dict[int, Rule] = {}
        self._headers: dict[int, tuple] = {}  # sid -> compiled header
        contentless: dict[str, list[tuple]] = {bucket: [] for bucket in RULE_PROTOS}
        matchers = {bucket: MultiPatternMatcher() for bucket in RULE_PROTOS}
        for rule in ruleset.rules:
            sid = rule.sid
            self.rules[sid] = rule
            header = self._headers[sid] = _header(rule, ruleset.variables)
            fast = rule.fast_pattern
            for bucket in RULE_PROTOS if rule.proto == "ip" else (rule.proto,):
                if fast is None:
                    contentless[bucket].append(header)
                else:
                    matchers[bucket].add(fast, sid)
        # per bucket: the contentless rules' headers, and an automaton whose
        # pattern ids are the fast-pattern rules' sids
        self._contentless = {bucket: tuple(headers) for bucket, headers in contentless.items()}
        self._matchers = {bucket: m.build() for bucket, m in matchers.items() if len(m)}
        # the rules matched on reassembled stream bytes, not on the payload
        self.stream_rules = frozenset(sid for sid, rule in self.rules.items() if rule.only_stream)

    def __len__(self) -> int:
        return len(self.rules)

    def admitted(self, tuple_: FiveTuple, hits: Collection[int]) -> set[int]:
        """The candidates for a packet: the contentless rules of its bucket
        plus the fast-pattern ``hits`` of its bucket's scan, each kept when
        its header admits the tuple, either way round for ``<>``. Ports are
        tested first: they reject most rules, and ``in`` on an address
        ``range`` costs several times ``in`` on a port frozenset."""
        proto, sip, sport, dip, dport = tuple_
        headers = self._contentless[_PROTO_BUCKET[proto]]
        if hits:  # most packets hit no fast pattern; a tuple iterates faster than a chain
            headers += tuple(map(self._headers.__getitem__, hits))
        candidates = set()
        for sid, sp, dp, sa, da, both_ways in headers:
            if (sport in sp and dport in dp and (sa is None or sip in sa) and (da is None or dip in da)) or (
                both_ways and dport in sp and sport in dp and (sa is None or dip in sa) and (da is None or sip in da)
            ):
                candidates.add(sid)
        return candidates

    def scan_payload(self, proto: Proto, data) -> Set[int]:
        """Scan one buffer once; returns the sids of the bucket's rules whose
        fast pattern occurs in it, only-stream rules included. The result is
        read-only: a bucket with no fast patterns returns a shared empty set."""
        matcher = self._matchers.get(_PROTO_BUCKET[proto])
        return matcher.scan(data) if matcher is not None else _NO_SIDS


def compile_ruleset(ruleset: RuleSet) -> CompiledRuleSet:
    return CompiledRuleSet(ruleset)
